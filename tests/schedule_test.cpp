// Power schedules and direction machinery of the fuzzing baselines,
// plus the CFG constant-propagation resolver and solver hint ordering —
// unit-level checks for behaviours the integration suites only observe
// indirectly.
#include <gtest/gtest.h>

#include "cfg/cfg.h"
#include "fuzz/fuzzer.h"
#include "solve_once.h"
#include "vm/asm.h"

namespace octopocs {
namespace {

// ---------------------------------------------------------------------------
// Solver value-hint ordering.
// ---------------------------------------------------------------------------

TEST(SolverHints, HintedValueWinsWhenFeasible) {
  symex::SolverOptions opts;
  opts.hints = {{0, 0x42}};
  const auto r = symex::SolveOnce({symex::MakeBinOp(
                                      vm::Op::kCmpLtU, symex::MakeInput(0),
                                      symex::MakeConst(0x80))},
                                  opts);
  ASSERT_EQ(r.status, symex::SolveStatus::kSat);
  EXPECT_EQ(r.model.at(0), 0x42);  // not the 0 default order would pick
}

TEST(SolverHints, InfeasibleHintFallsBack) {
  symex::SolverOptions opts;
  opts.hints = {{0, 0xF0}};  // violates the constraint below
  const auto r = symex::SolveOnce({symex::MakeBinOp(
                                      vm::Op::kCmpLtU, symex::MakeInput(0),
                                      symex::MakeConst(0x10))},
                                  opts);
  ASSERT_EQ(r.status, symex::SolveStatus::kSat);
  EXPECT_LT(r.model.at(0), 0x10);
}

// ---------------------------------------------------------------------------
// CFG constant propagation (the "angr fix").
// ---------------------------------------------------------------------------

TEST(ConstProp, ResolvesThroughRodataLoadAndXor) {
  const vm::Program p = vm::Assemble(R"(
    data key:
      .u8 0x33
    func main()
      fnaddr %f, handler
      movi %kp, @key
      load.1 %k, %kp, 0
      xor %obf, %f, %k
      xor %g, %obf, %k
      icall %v, %g()
      ret %v
    func handler()
      ret
  )");
  cfg::CfgOptions opts;
  opts.use_dynamic = false;  // const-prop alone must find the edge
  opts.resolve_obfuscated_icalls = true;
  const cfg::Cfg graph = cfg::Cfg::Build(p, opts);
  EXPECT_TRUE(graph.BackwardReachability(p.FindFunction("handler"))
                  .EntryReaches());
}

TEST(ConstProp, AcrossBlockBoundaries) {
  // The obfuscated pointer is computed in the entry block and used in a
  // later block; the must-constant dataflow has to carry it across.
  const vm::Program p = vm::Assemble(R"(
    func main()
      fnaddr %f, handler
      movi %k, 0x7070
      xor %obf, %f, %k
      movi %n, 1
      alloc %buf, %n
      read %got, %buf, %n
      load.1 %c, %buf, 0
      br %c, hot, cold
    hot:
      xor %g, %obf, %k
      icall %v, %g()
      ret %v
    cold:
      ret %c
    func handler()
      ret
  )");
  cfg::CfgOptions opts;
  opts.use_dynamic = false;
  opts.resolve_obfuscated_icalls = true;
  const cfg::Cfg graph = cfg::Cfg::Build(p, opts);
  EXPECT_TRUE(graph.BackwardReachability(p.FindFunction("handler"))
                  .EntryReaches());
}

TEST(ConstProp, ConflictingDefinitionsStayUnknown) {
  // Two paths write different constants into the pointer register: the
  // meet is unknown, so nothing may be resolved (soundness: const-prop
  // must never invent an edge it cannot prove).
  const vm::Program p = vm::Assemble(R"(
    func main()
      movi %n, 1
      alloc %buf, %n
      read %got, %buf, %n
      load.1 %c, %buf, 0
      br %c, a, b
    a:
      fnaddr %g, handler1
      jmp go
    b:
      fnaddr %g, handler2
      jmp go
    go:
      icall %v, %g()
      ret %v
    func handler1()
      ret
    func handler2()
      ret
  )");
  cfg::CfgOptions opts;
  opts.use_dynamic = false;
  opts.resolve_obfuscated_icalls = true;
  const cfg::Cfg graph = cfg::Cfg::Build(p, opts);
  // Neither handler is provably the unique target — no static edge.
  EXPECT_FALSE(graph.BackwardReachability(p.FindFunction("handler1"))
                   .EntryReaches());
  EXPECT_FALSE(graph.BackwardReachability(p.FindFunction("handler2"))
                   .EntryReaches());
  // The dynamic CFG (concrete seeds) still discovers them.
  cfg::CfgOptions dyn;
  dyn.resolve_obfuscated_icalls = true;
  dyn.seed_inputs = {Bytes{0}, Bytes{1}};
  const cfg::Cfg dgraph = cfg::Cfg::Build(p, dyn);
  EXPECT_TRUE(dgraph.BackwardReachability(p.FindFunction("handler1"))
                  .EntryReaches());
  EXPECT_TRUE(dgraph.BackwardReachability(p.FindFunction("handler2"))
                  .EntryReaches());
}

// ---------------------------------------------------------------------------
// Fuzzer harness behaviours.
// ---------------------------------------------------------------------------

TEST(FuzzHarness, BudgetIsRespected) {
  // A target nothing can crash: the fuzzer must stop exactly at budget.
  const vm::Program t = vm::Assemble(R"(
    func main()
      movi %n, 4
      alloc %buf, %n
      read %got, %buf, %n
      call %v, safe(%got)
      ret %v
    func safe(x)
      ret %x
  )");
  fuzz::FuzzOptions opts;
  opts.max_execs = 777;
  fuzz::AflFastFuzzer fuzzer(t, t.FindFunction("safe"), {Bytes{1, 2, 3, 4}},
                             opts);
  const auto r = fuzzer.Run();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.execs, 777u);
}

TEST(FuzzHarness, CoverageGrowsTheCorpus) {
  // Each distinct first byte below 4 opens a new branch: the corpus
  // should collect several coverage-novel inputs.
  const vm::Program t = vm::Assemble(R"(
    func main()
      movi %n, 1
      alloc %buf, %n
      read %got, %buf, %n
      load.1 %c, %buf, 0
      movi %k1, 1
      cmpeq %is1, %c, %k1
      br %is1, b1, n1
    b1:
      movi %r, 10
      ret %r
    n1:
      movi %k2, 2
      cmpeq %is2, %c, %k2
      br %is2, b2, n2
    b2:
      movi %r, 20
      ret %r
    n2:
      movi %k3, 3
      cmpeq %is3, %c, %k3
      br %is3, b3, n3
    b3:
      movi %r, 30
      ret %r
    n3:
      call %v, leaf(%c)
      ret %v
    func leaf(x)
      ret %x
  )");
  fuzz::FuzzOptions opts;
  opts.max_execs = 3'000;
  fuzz::AflFastFuzzer fuzzer(t, t.FindFunction("leaf"), {Bytes{9}}, opts);
  const auto r = fuzzer.Run();
  EXPECT_GE(r.corpus_size, 3u);
  EXPECT_GT(r.edges_covered, 4u);
}

TEST(FuzzHarness, AflGoSkipsDeterministicStage) {
  // With a zero-ish budget the deterministic stage alone would exceed
  // it; AFLGo (-d) must not run it, so its exec count equals the seed
  // executions plus havoc only.
  const vm::Program t = vm::Assemble(R"(
    func main()
      movi %n, 2
      alloc %buf, %n
      read %got, %buf, %n
      call %v, leaf(%got)
      ret %v
    func leaf(x)
      ret %x
  )");
  const cfg::Cfg graph = cfg::Cfg::Build(t);
  fuzz::FuzzOptions opts;
  opts.max_execs = 50;
  fuzz::AflGoFuzzer go(t, t.FindFunction("leaf"), graph,
                       {Bytes(64, 0xAB)}, opts);
  const auto r = go.Run();
  EXPECT_EQ(r.execs, 50u);  // ran to budget, no early determinism burst
}

}  // namespace
}  // namespace octopocs
