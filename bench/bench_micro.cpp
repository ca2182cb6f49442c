// Micro-benchmarks (google-benchmark): substrate costs underneath the
// pipeline — interpreter throughput, taint-tracking overhead, solver
// latency, CFG construction, and the per-phase costs on a real pair.
#include <benchmark/benchmark.h>

#include "cfg/cfg.h"
#include "core/octopocs.h"
#include "corpus/pairs.h"
#include "formats/formats.h"
#include "symex/executor.h"
#include "symex/solver.h"
#include "taint/crash_primitive.h"
#include "taint/taint_engine.h"
#include "vm/asm.h"
#include "vm/interp.h"

using namespace octopocs;

namespace {

// A busy little program: tight loop summing file bytes.
const vm::Program& LoopProgram() {
  static const vm::Program p = vm::Assemble(R"(
    func main()
      movi %n, 64
      alloc %buf, %n
      read %got, %buf, %n
      movi %i, 0
      movi %sum, 0
    loop:
      cmpltu %more, %i, %got
      br %more, body, done
    body:
      add %p, %buf, %i
      load.1 %c, %p, 0
      add %sum, %sum, %c
      addi %i, %i, 1
      jmp loop
    done:
      ret %sum
  )");
  return p;
}

void BM_InterpreterThroughput(benchmark::State& state) {
  const vm::Program& p = LoopProgram();
  const Bytes input(64, 7);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const auto r = vm::RunProgram(p, input);
    instructions += r.instructions;
    benchmark::DoNotOptimize(r.return_value);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput);

void BM_TaintTrackingOverhead(benchmark::State& state) {
  const vm::Program& p = LoopProgram();
  const Bytes input(64, 7);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    taint::TaintEngine engine(p);
    vm::Interpreter interp(p, input);
    interp.AddObserver(&engine);
    const auto r = interp.Run();
    instructions += r.instructions;
    benchmark::DoNotOptimize(r.return_value);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TaintTrackingOverhead);

void BM_CrashPrimitiveExtraction(benchmark::State& state) {
  const corpus::Pair pair = corpus::BuildPair(1);
  const vm::FuncId ep = pair.s.FindFunction("mjpg_decode");
  for (auto _ : state) {
    const auto r = taint::ExtractCrashPrimitives(pair.s, pair.poc, ep);
    benchmark::DoNotOptimize(r.bunches.size());
  }
}
BENCHMARK(BM_CrashPrimitiveExtraction);

/// One query on a fresh cache and a fresh context holding the path,
/// the way a new executor state asks its first.
symex::SolveResult SolveOnce(const std::vector<symex::ExprRef>& constraints) {
  symex::SolverCache cache;
  symex::SolveContext ctx;
  for (const symex::ExprRef& c : constraints) ctx.Append(c);
  return cache.Solve(ctx, nullptr, {}, {});
}

void BM_SolverMagicEquality(benchmark::State& state) {
  for (auto _ : state) {
    auto field = symex::MakeInput(0);
    for (unsigned i = 1; i < 4; ++i) {
      field = symex::MakeBinOp(
          vm::Op::kOr, field,
          symex::MakeBinOp(vm::Op::kShl, symex::MakeInput(i),
                           symex::MakeConst(8 * i)));
    }
    const auto r = SolveOnce({symex::MakeBinOp(
        vm::Op::kCmpEq, field, symex::MakeConst(0x4650444D))});
    benchmark::DoNotOptimize(r.status);
  }
}
BENCHMARK(BM_SolverMagicEquality);

void BM_SolverUnsatProof(benchmark::State& state) {
  for (auto _ : state) {
    const auto len = symex::MakeBinOp(
        vm::Op::kOr, symex::MakeInput(0),
        symex::MakeBinOp(vm::Op::kShl, symex::MakeInput(1),
                         symex::MakeConst(8)));
    const auto r = SolveOnce(
        {symex::MakeBinOp(vm::Op::kCmpEq, len, symex::MakeConst(0x100)),
         symex::MakeBinOp(vm::Op::kCmpLtU, len, symex::MakeConst(65))});
    benchmark::DoNotOptimize(r.status);
  }
}
BENCHMARK(BM_SolverUnsatProof);

void BM_CfgConstruction(benchmark::State& state) {
  const corpus::Pair pair = corpus::BuildPair(8);
  for (auto _ : state) {
    const cfg::Cfg graph = cfg::Cfg::Build(pair.t);
    benchmark::DoNotOptimize(graph.dynamic_edge_count());
  }
}
BENCHMARK(BM_CfgConstruction);

void BM_BackwardReachability(benchmark::State& state) {
  const corpus::Pair pair = corpus::BuildPair(8);
  const cfg::Cfg graph = cfg::Cfg::Build(pair.t);
  const vm::FuncId ep = pair.t.FindFunction("mj2k_decode");
  for (auto _ : state) {
    const auto map = graph.BackwardReachability(ep);
    benchmark::DoNotOptimize(map.EntryReaches());
  }
}
BENCHMARK(BM_BackwardReachability);

void BM_DirectedSymexToEp(benchmark::State& state) {
  const corpus::Pair pair = corpus::BuildPair(8);
  const cfg::Cfg graph = cfg::Cfg::Build(pair.t);
  const vm::FuncId ep = pair.t.FindFunction("mj2k_decode");
  for (auto _ : state) {
    symex::SymExecutor executor(pair.t, graph, ep);
    const auto r = executor.ReachEp(/*directed=*/true);
    benchmark::DoNotOptimize(r.status);
  }
}
BENCHMARK(BM_DirectedSymexToEp);

void BM_FullPipelinePair(benchmark::State& state) {
  const corpus::Pair pair = corpus::BuildPair(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::PipelineOptions opts;
    opts.verify_exec.fuel = 2'000'000;
    const auto report = core::VerifyPair(pair, opts);
    benchmark::DoNotOptimize(report.verdict);
  }
}
BENCHMARK(BM_FullPipelinePair)->Arg(1)->Arg(8)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
