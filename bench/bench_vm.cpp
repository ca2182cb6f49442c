// MiniVM dispatch bench: switch vs direct-threaded vs threaded+fused.
//
//   bench_vm [--smoke] [--out FILE]
//
// Three interpreter-bound workloads (an ALU-heavy decode loop, a
// memory-access loop, and a call-heavy loop) each run under the three
// backend configurations. For every workload the bench first proves
// byte-identity — ExecResult fields and a digest over the full observer
// event stream (instructions with coordinates and values, calls with
// arguments, block transfers, file reads) must match across all three
// configurations — then times observer-free runs and reports
// instructions/second. A per-opcode histogram (vm/trace.h) of the
// fused run shows where the retired instructions went.
//
// Emits BENCH_vm.json with the headline `vm_speedup`: threaded+fused vs
// switch on the dispatch-bound ALU workload — the cost the tentpole
// actually attacks. The memory- and call-bound loops are reported
// alongside (mem_speedup/call_speedup) as the Amdahl bound: their
// handler bodies (bounds checks, frame setup) cost the same under every
// backend, so their ratios show how much of each profile dispatch was.
// `threaded_identical_to_switch` is the hard identity bit the CI gate
// checks.
//
// Gates: identity is always fatal; vm_speedup below 3x is fatal outside
// --smoke.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "support/bytes.h"
#include "vm/asm.h"
#include "vm/fusion.h"
#include "vm/interp.h"
#include "vm/trace.h"

using namespace octopocs;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a digest over every observer event, in stream order. Two runs
/// with identical event streams (coordinates, opcodes, values,
/// arguments) produce identical digests; any reordering, omission, or
/// changed value diverges.
class EventDigest : public vm::ExecutionObserver {
 public:
  void OnInstr(vm::FuncId fn, vm::BlockId block, std::size_t ip,
               const vm::Instr& instr, std::uint64_t eff_addr,
               std::uint64_t value) override {
    Mix(1); Mix(fn); Mix(block); Mix(ip);
    Mix(static_cast<std::uint64_t>(instr.op));
    Mix(eff_addr); Mix(value);
    ++events_;
  }
  void OnCallEnter(vm::FuncId callee, std::span<const std::uint64_t> args,
                   const vm::Instr* call_site) override {
    Mix(2); Mix(callee);
    Mix(call_site == nullptr
            ? ~0ULL
            : static_cast<std::uint64_t>(call_site->op));
    for (const std::uint64_t a : args) Mix(a);
    ++events_;
  }
  void OnCallExit(vm::FuncId callee, std::uint64_t ret, bool returns_value,
                  vm::Reg callee_value_reg, vm::Reg caller_dest_reg) override {
    Mix(3); Mix(callee); Mix(ret); Mix(returns_value ? 1 : 0);
    Mix(callee_value_reg); Mix(caller_dest_reg);
    ++events_;
  }
  void OnFileRead(std::uint64_t dst_addr, std::uint64_t file_off,
                  std::uint64_t count) override {
    Mix(4); Mix(dst_addr); Mix(file_off); Mix(count);
    ++events_;
  }
  void OnBlockTransfer(vm::FuncId fn, vm::BlockId from,
                       vm::BlockId to) override {
    Mix(5); Mix(fn); Mix(from); Mix(to);
    ++events_;
  }
  void OnIndirectCall(vm::FuncId caller, vm::BlockId block, std::size_t ip,
                      vm::FuncId resolved) override {
    Mix(6); Mix(caller); Mix(block); Mix(ip); Mix(resolved);
    ++events_;
  }

  std::uint64_t digest() const { return h_; }
  std::uint64_t events() const { return events_; }

 private:
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t h_ = 1469598103934665603ULL;
  std::uint64_t events_ = 0;
};

struct Workload {
  const char* name;
  /// The headline workload (dispatch/fusion-bound).
  bool headline;
  /// Short-loop variant for the identity check (observer callbacks make
  /// event-per-instruction runs expensive) and the long-loop variant for
  /// observer-free timing. Same code shape, different trip count.
  vm::Program identity_program;
  vm::Program timed_program;
  Bytes input;
};

std::string Fmt1(std::uint64_t iters) { return std::to_string(iters); }

/// Decode/accumulate loop shaped like the formats parsers' hot paths:
/// movi+alu pairs, an addi, and a compare-branch back edge — the exact
/// shapes the peephole pass targets.
vm::Program AluProgram(std::uint64_t iters) {
  const std::string text =
      "program \"bench-alu\"\n"
      "func main()\n"
      "L0:\n"
      "  movi %r0, 0\n"
      "  movi %r1, " + Fmt1(iters) + "\n"
      "  movi %r2, 0\n"
      "  jmp L1\n"
      "L1:\n"
      "  movi %r3, 7\n"
      "  add %r2, %r2, %r3\n"
      "  movi %r4, 3\n"
      "  mul %r5, %r2, %r4\n"
      "  xor %r2, %r5, %r0\n"
      "  addi %r0, %r0, 1\n"
      "  cmpltu %r6, %r0, %r1\n"
      "  br %r6, L1, L2\n"
      "L2:\n"
      "  ret %r2\n";
  return vm::Assemble(text);
}

/// Field-extraction loop shaped like a parser reading a header word:
/// addi+load the word, mask/shift out two fields (movi+alu pairs), store
/// the recombined value, compare-branch back edge.
vm::Program MemProgram(std::uint64_t iters) {
  const std::string text =
      "program \"bench-mem\"\n"
      "func main()\n"
      "L0:\n"
      "  movi %r0, 256\n"
      "  alloc %r1, %r0\n"
      "  movi %r2, 0\n"
      "  movi %r3, " + Fmt1(iters) + "\n"
      "  jmp L1\n"
      "L1:\n"
      "  addi %r4, %r1, 8\n"
      "  load.4 %r5, %r4, 0\n"
      "  movi %r6, 255\n"
      "  and %r7, %r5, %r6\n"
      "  movi %r8, 8\n"
      "  shr %r9, %r5, %r8\n"
      "  add %r5, %r7, %r9\n"
      "  store.4 %r5, %r1, 8\n"
      "  addi %r2, %r2, 1\n"
      "  cmpltu %r10, %r2, %r3\n"
      "  br %r10, L1, L2\n"
      "L2:\n"
      "  ret %r2\n";
  return vm::Assemble(text);
}

/// Call-heavy loop: dispatch is a minor cost next to frame setup, so
/// this workload bounds how much the backends can differ off the fused
/// fast path. Reported, not part of the headline aggregate.
vm::Program CallProgram(std::uint64_t iters) {
  const std::string text =
      "program \"bench-call\"\n"
      "func leaf(r0)\n"
      "L0:\n"
      "  movi %r1, 2\n"
      "  mul %r2, %r0, %r1\n"
      "  ret %r2\n"
      "func main()\n"
      "L0:\n"
      "  movi %r0, 0\n"
      "  movi %r1, " + Fmt1(iters) + "\n"
      "  movi %r2, 0\n"
      "  jmp L1\n"
      "L1:\n"
      "  call %r3, leaf(%r0)\n"
      "  add %r2, %r2, %r3\n"
      "  addi %r0, %r0, 1\n"
      "  cmpltu %r4, %r0, %r1\n"
      "  br %r4, L1, L2\n"
      "L2:\n"
      "  ret %r2\n";
  return vm::Assemble(text);
}

/// A run that ends in a memory trap mid-loop — identity must also hold
/// for trap kind, fault address, message, backtrace, and instruction
/// count at the fault. Identity-only (too short to time).
vm::Program TrapProgram() {
  const std::string text =
      "program \"bench-trap\"\n"
      "func main()\n"
      "L0:\n"
      "  movi %r0, 8\n"
      "  alloc %r1, %r0\n"
      "  movi %r2, 0\n"
      "  jmp L1\n"
      "L1:\n"
      "  movi %r3, 9\n"
      "  add %r4, %r1, %r3\n"
      "  store.4 %r2, %r4, 0\n"
      "  addi %r2, %r2, 1\n"
      "  cmpltu %r5, %r2, %r0\n"
      "  br %r5, L1, L2\n"
      "L2:\n"
      "  ret %r2\n";
  return vm::Assemble(text);
}

vm::ExecOptions ExecFor(vm::DispatchMode mode, bool fuse) {
  vm::ExecOptions exec;
  exec.fuel = 1'000'000'000;
  exec.dispatch = mode;
  exec.fuse = fuse;
  return exec;
}

struct ObservedRun {
  vm::ExecResult result;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
};

ObservedRun RunObserved(const Workload& w, vm::DispatchMode mode, bool fuse) {
  EventDigest digest;
  vm::Interpreter interp(w.identity_program, ByteView(w.input),
                         ExecFor(mode, fuse));
  interp.AddObserver(&digest);
  ObservedRun run;
  run.result = interp.Run();
  run.digest = digest.digest();
  run.events = digest.events();
  return run;
}

bool SameResult(const vm::ExecResult& a, const vm::ExecResult& b) {
  if (a.trap != b.trap || a.return_value != b.return_value ||
      a.instructions != b.instructions || a.fault_addr != b.fault_addr ||
      a.trap_message != b.trap_message ||
      a.backtrace.size() != b.backtrace.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.backtrace.size(); ++i) {
    if (a.backtrace[i].fn != b.backtrace[i].fn ||
        a.backtrace[i].block != b.backtrace[i].block ||
        a.backtrace[i].ip != b.backtrace[i].ip) {
      return false;
    }
  }
  return true;
}

struct Throughput {
  double switch_ips = 0;
  double threaded_ips = 0;
  double fused_ips = 0;
};

double OneTimedRun(const Workload& w, vm::DispatchMode mode, bool fuse) {
  vm::Interpreter interp(w.timed_program, ByteView(w.input),
                         ExecFor(mode, fuse));
  const auto start = Clock::now();
  const vm::ExecResult result = interp.Run();
  const double seconds = SecondsSince(start);
  if (seconds <= 0) return 0;
  return static_cast<double>(result.instructions) / seconds;
}

/// Observer-free instructions/second, best of `reps` rounds. Each round
/// times the three configurations back-to-back (interleaved rounds, not
/// per-config batches) so a noisy neighbour or frequency drift hits all
/// three roughly equally instead of skewing one side of the ratio.
Throughput MeasureWorkload(const Workload& w, int reps) {
  Throughput best;
  for (int r = 0; r < reps; ++r) {
    best.switch_ips = std::max(
        best.switch_ips, OneTimedRun(w, vm::DispatchMode::kSwitch, false));
    best.threaded_ips = std::max(
        best.threaded_ips, OneTimedRun(w, vm::DispatchMode::kThreaded, false));
    best.fused_ips = std::max(
        best.fused_ips, OneTimedRun(w, vm::DispatchMode::kThreaded, true));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_vm.json";
  bench::Args args(argc, argv);
  while (args.Next()) {
    if (args.flag() == "--smoke") {
      smoke = true;
    } else if (args.flag() == "--out") {
      out_path = args.Value();
    } else {
      args.Unknown();
    }
  }

  const std::uint64_t id_iters = smoke ? 20'000 : 50'000;
  const std::uint64_t timed_iters = smoke ? 50'000 : 3'000'000;
  const int reps = smoke ? 1 : 5;

  std::vector<Workload> workloads;
  workloads.push_back(
      {"alu", true, AluProgram(id_iters), AluProgram(timed_iters), {}});
  workloads.push_back(
      {"mem", false, MemProgram(id_iters), MemProgram(timed_iters), {}});
  workloads.push_back({"call", false, CallProgram(id_iters / 4),
                       CallProgram(timed_iters / 4), {}});
  workloads.push_back({"trap", false, TrapProgram(), TrapProgram(), {}});

  std::printf("=== MiniVM dispatch (switch vs threaded vs fused) ===\n\n");

  // -- Identity: all three configurations, full observer streams ------------
  bool all_identical = true;
  for (const Workload& w : workloads) {
    const ObservedRun sw = RunObserved(w, vm::DispatchMode::kSwitch, false);
    const ObservedRun th = RunObserved(w, vm::DispatchMode::kThreaded, false);
    const ObservedRun fu = RunObserved(w, vm::DispatchMode::kThreaded, true);
    const bool same = SameResult(sw.result, th.result) &&
                      SameResult(sw.result, fu.result) &&
                      sw.digest == th.digest && sw.digest == fu.digest &&
                      sw.events == th.events && sw.events == fu.events;
    std::printf("identity %-5s %s (%" PRIu64 " events, trap=%s, %" PRIu64
                " instructions)\n",
                w.name, same ? "ok      " : "DIVERGED", sw.events,
                vm::TrapName(sw.result.trap).data(), sw.result.instructions);
    all_identical = all_identical && same;
  }
  std::printf("\n");

  // -- Throughput: observer-free, best of reps ------------------------------
  bench::TextTable table({"workload", "switch Mi/s", "threaded Mi/s",
                          "fused Mi/s", "fused/switch"});
  double vm_speedup = 0, threaded_speedup = 0;
  double headline_switch_ips = 0, headline_threaded_ips = 0;
  double headline_fused_ips = 0;
  double mem_speedup = 0, call_speedup = 0;
  for (const Workload& w : workloads) {
    if (w.name == std::string("trap")) continue;  // too short to time
    const Throughput t = MeasureWorkload(w, reps);
    const double sw = t.switch_ips, th = t.threaded_ips, fu = t.fused_ips;
    const double ratio = sw > 0 ? fu / sw : 0;
    table.AddRow({w.name, bench::Fmt("%.1f", sw / 1e6),
                  bench::Fmt("%.1f", th / 1e6), bench::Fmt("%.1f", fu / 1e6),
                  bench::Fmt("%.2fx", ratio)});
    if (w.headline) {
      vm_speedup = ratio;
      threaded_speedup = sw > 0 ? th / sw : 0;
      headline_switch_ips = sw;
      headline_threaded_ips = th;
      headline_fused_ips = fu;
    } else if (w.name == std::string("mem")) {
      mem_speedup = ratio;
    } else {
      call_speedup = ratio;
    }
  }
  table.Print();

  std::printf("\nheadline (dispatch-bound alu): threaded %.2fx | "
              "threaded+fused %.2fx vs switch\n"
              "amdahl bounds: memory-bound %.2fx | call-bound %.2fx\n",
              threaded_speedup, vm_speedup, mem_speedup, call_speedup);

  // -- Fusion coverage + per-opcode histogram -------------------------------
  const vm::DecodedProgram decoded =
      vm::DecodeProgram(workloads[0].identity_program, /*fuse=*/true);
  std::printf("fusion (alu): %" PRIu64 " pair(s), %" PRIu64 " triple(s), %"
              PRIu64 " single(s)\n",
              decoded.stats.pairs, decoded.stats.triples,
              decoded.stats.singles);

  vm::OpcodeHistogram hist;
  {
    vm::Interpreter interp(workloads[0].identity_program,
                           ByteView(workloads[0].input),
                           ExecFor(vm::DispatchMode::kThreaded, true));
    interp.AddObserver(&hist);
    interp.Run();
  }
  std::printf("top opcodes (alu, fused run):");
  std::size_t shown = 0;
  for (const auto& [op, count] : hist.Sorted()) {
    if (++shown > 6) break;
    std::printf(" %s=%" PRIu64, vm::OpName(op).data(), count);
  }
  std::printf(" (total %" PRIu64 ")\n\n", hist.total());

  // -- Machine-readable ------------------------------------------------------
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"threaded_identical_to_switch\": %s,\n"
                 "  \"vm_speedup\": %.3f,\n"
                 "  \"threaded_speedup\": %.3f,\n"
                 "  \"mem_speedup\": %.3f,\n"
                 "  \"call_speedup\": %.3f,\n"
                 "  \"headline_switch_ips\": %.0f,\n"
                 "  \"headline_threaded_ips\": %.0f,\n"
                 "  \"headline_fused_ips\": %.0f,\n"
                 "  \"fusion_pairs\": %" PRIu64 ",\n"
                 "  \"fusion_triples\": %" PRIu64 ",\n"
                 "  \"fusion_singles\": %" PRIu64 ",\n"
                 "  \"dispatch_table_size\": %zu,\n"
                 "  \"smoke\": %s\n"
                 "}\n",
                 all_identical ? "true" : "false", vm_speedup,
                 threaded_speedup, mem_speedup, call_speedup,
                 headline_switch_ips,
                 headline_threaded_ips, headline_fused_ips,
                 decoded.stats.pairs, decoded.stats.triples,
                 decoded.stats.singles, vm::ThreadedDispatchTableSize(),
                 smoke ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
  }

  // -- Gates -----------------------------------------------------------------
  if (!all_identical) {
    std::printf("FAIL: threaded/fused execution diverged from the switch "
                "backend\n");
    return 1;
  }
  if (!smoke && vm_speedup < 3.0) {
    std::printf("FAIL: vm speedup %.2fx below the 3x floor\n", vm_speedup);
    return 1;
  }
  return 0;
}
