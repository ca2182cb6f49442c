// Dispatch-backend equivalence suite.
//
// The threaded backend (computed-goto dispatch + superinstruction
// fusion + strided interrupt checks) is a pure performance substitute
// for the switch interpreter: every observable — ExecResult fields,
// backtraces, the full observer event stream, taint propagation — must
// be identical under kSwitch, kThreaded without fusion, and kThreaded
// with fusion. This suite checks that equivalence on hand-built trap
// programs, a fuel-exactness sweep that lands mid-fused-entry, and a
// randomized program family; plus the three-layer exhaustiveness guard
// (op_info rows, mnemonics, dispatch table) and the strided-deadline
// bound.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "support/rng.h"
#include "taint/taint_engine.h"
#include "vm/asm.h"
#include "vm/fusion.h"
#include "vm/interp.h"
#include "vm/op_info.h"

namespace octopocs::vm {
namespace {

// -- Exhaustiveness: the three per-opcode layers cover every Op ---------------

TEST(Exhaustiveness, EveryOpHasAnOpInfoRow) {
  EXPECT_TRUE(OpInfoTableComplete());
}

TEST(Exhaustiveness, EveryOpHasAMnemonic) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const std::string_view name = OpName(static_cast<Op>(i));
    EXPECT_FALSE(name.empty()) << "opcode " << i;
    EXPECT_NE(name, "?") << "opcode " << i;
  }
  // The fallback is reserved for genuinely out-of-range values.
  EXPECT_EQ(OpName(static_cast<Op>(kOpCount)), "?");
}

TEST(Exhaustiveness, ThreadedDispatchTableCoversOpsFusionsAndTerminators) {
  EXPECT_EQ(ThreadedDispatchTableSize(), kDispatchTableSize);
  EXPECT_EQ(kDispatchTableSize, kOpCount + kFusedOpCount + 3);
}

// -- Full-observability comparison machinery ----------------------------------

/// Records every observer callback as a formatted line, so a divergence
/// between backends shows up as a readable textual diff.
class EventLog : public ExecutionObserver {
 public:
  void OnInstr(FuncId fn, BlockId block, std::size_t ip, const Instr& instr,
               std::uint64_t eff_addr, std::uint64_t value) override {
    Add("instr fn=%u b=%u ip=%zu op=%s eff=%llu val=%llu", fn, block, ip,
        OpName(instr.op).data(), (unsigned long long)eff_addr,
        (unsigned long long)value);
  }
  void OnCallEnter(FuncId callee, std::span<const std::uint64_t> args,
                   const Instr* call_site) override {
    std::string s = "enter fn=" + std::to_string(callee) + " site=" +
                    (call_site ? std::string(OpName(call_site->op)) : "-");
    for (const std::uint64_t a : args) s += " " + std::to_string(a);
    lines.push_back(std::move(s));
  }
  void OnCallExit(FuncId callee, std::uint64_t ret, bool returns_value,
                  Reg value_reg, Reg dest_reg) override {
    Add("exit fn=%u ret=%llu rv=%d vreg=%u dreg=%u", callee,
        (unsigned long long)ret, returns_value ? 1 : 0, value_reg, dest_reg);
  }
  void OnFileRead(std::uint64_t dst, std::uint64_t off,
                  std::uint64_t count) override {
    Add("read dst=%llu off=%llu n=%llu", (unsigned long long)dst,
        (unsigned long long)off, (unsigned long long)count);
  }
  void OnBlockTransfer(FuncId fn, BlockId from, BlockId to) override {
    Add("xfer fn=%u %u->%u", fn, from, to);
  }
  void OnIndirectCall(FuncId caller, BlockId block, std::size_t ip,
                      FuncId resolved) override {
    Add("icall fn=%u b=%u ip=%zu -> %u", caller, block, ip, resolved);
  }

  std::vector<std::string> lines;

 private:
  template <typename... Args>
  void Add(const char* fmt, Args... args) {
    char buf[160];
    std::snprintf(buf, sizeof buf, fmt, args...);
    lines.emplace_back(buf);
  }
};

struct RunCapture {
  ExecResult result;
  std::vector<std::string> events;
  /// Taint of every distinct stored-to byte, in address order — a
  /// backend that mispropagates through fused handlers diverges here.
  std::vector<std::string> taint;
};

RunCapture Capture(const Program& program, const Bytes& input,
                   DispatchMode mode, bool fuse, std::uint64_t fuel) {
  ExecOptions exec;
  exec.dispatch = mode;
  exec.fuse = fuse;
  exec.fuel = fuel;
  EventLog log;
  taint::TaintEngine engine(program);
  Interpreter interp(program, ByteView(input), exec);
  interp.AddObserver(&log);
  interp.AddObserver(&engine);
  RunCapture cap;
  cap.result = interp.Run();
  cap.events = std::move(log.lines);
  // Sample taint at every address a store touched.
  std::vector<std::uint64_t> addrs;
  for (const std::string& line : cap.events) {
    if (line.rfind("instr", 0) == 0 &&
        line.find("op=store") != std::string::npos) {
      const std::size_t at = line.find("eff=");
      addrs.push_back(std::strtoull(line.c_str() + at + 4, nullptr, 10));
    }
  }
  for (const std::uint64_t a : addrs) {
    const taint::TaintSet t = engine.MemTaint(a, 1);
    std::string s = std::to_string(a) + ":";
    for (const std::uint32_t label : t) s += " " + std::to_string(label);
    cap.taint.push_back(std::move(s));
  }
  return cap;
}

void ExpectSameResult(const ExecResult& a, const ExecResult& b,
                      const char* what) {
  EXPECT_EQ(a.trap, b.trap) << what;
  EXPECT_EQ(a.return_value, b.return_value) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.fault_addr, b.fault_addr) << what;
  EXPECT_EQ(a.trap_message, b.trap_message) << what;
  ASSERT_EQ(a.backtrace.size(), b.backtrace.size()) << what;
  for (std::size_t i = 0; i < a.backtrace.size(); ++i) {
    EXPECT_EQ(a.backtrace[i].fn, b.backtrace[i].fn) << what << " frame " << i;
    EXPECT_EQ(a.backtrace[i].block, b.backtrace[i].block)
        << what << " frame " << i;
    EXPECT_EQ(a.backtrace[i].ip, b.backtrace[i].ip) << what << " frame " << i;
  }
}

/// Runs under all three configurations and asserts every observable
/// matches. Returns the switch-backend result for further assertions.
ExecResult ExpectBackendsAgree(const Program& program, const Bytes& input,
                               std::uint64_t fuel = 1'000'000) {
  const RunCapture sw = Capture(program, input, DispatchMode::kSwitch,
                                /*fuse=*/false, fuel);
  const RunCapture th = Capture(program, input, DispatchMode::kThreaded,
                                /*fuse=*/false, fuel);
  const RunCapture fu = Capture(program, input, DispatchMode::kThreaded,
                                /*fuse=*/true, fuel);
  ExpectSameResult(sw.result, th.result, "switch vs threaded");
  ExpectSameResult(sw.result, fu.result, "switch vs fused");
  EXPECT_EQ(sw.events, th.events) << "event stream: switch vs threaded";
  EXPECT_EQ(sw.events, fu.events) << "event stream: switch vs fused";
  EXPECT_EQ(sw.taint, th.taint) << "taint: switch vs threaded";
  EXPECT_EQ(sw.taint, fu.taint) << "taint: switch vs fused";
  return sw.result;
}

// -- Hand-built trap/shape programs -------------------------------------------

TEST(BackendIdentity, FusibleLoopRunsToCompletion) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %i, 0\n"
      "    movi %n, 1000\n"
      "    movi %acc, 0\n"
      "    jmp L1\n"
      "  L1:\n"
      "    movi %k, 7\n"
      "    add %acc, %acc, %k\n"
      "    movi %m, 3\n"
      "    mul %acc, %acc, %m\n"
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %n\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %acc\n");
  const ExecResult r = ExpectBackendsAgree(p, {});
  EXPECT_EQ(r.trap, TrapKind::kNone);
}

TEST(BackendIdentity, OutOfBoundsTrapMidFusedPair) {
  // The addi+load pair fuses; the load (the *last* constituent) traps.
  // Fault address, backtrace, and retired-instruction count must match
  // the switch backend exactly.
  const Program p = Assemble(
      "  func main()\n"
      "    movi %n, 16\n"
      "    alloc %buf, %n\n"
      "    addi %ptr, %buf, 12\n"
      "    load.8 %v, %ptr, 0\n"
      "    ret %v\n");
  const ExecResult r = ExpectBackendsAgree(p, {});
  EXPECT_EQ(r.trap, TrapKind::kOutOfBounds);
  EXPECT_FALSE(r.backtrace.empty());
}

TEST(BackendIdentity, DivByZeroInsideMovImmAluPair) {
  // movi feeds the divisor register: the fused movi+divu handler must
  // trap identically to two discrete steps.
  const Program p = Assemble(
      "  func main()\n"
      "    movi %a, 100\n"
      "    movi %z, 0\n"
      "    divu %q, %a, %z\n"
      "    ret %q\n");
  const ExecResult r = ExpectBackendsAgree(p, {});
  EXPECT_EQ(r.trap, TrapKind::kDivByZero);
}

TEST(BackendIdentity, AssertFailureAndNullDeref) {
  const Program assert_p = Assemble(
      "  func main()\n"
      "    movi %x, 0\n"
      "    assert %x\n"
      "    ret %x\n");
  EXPECT_EQ(ExpectBackendsAgree(assert_p, {}).trap, TrapKind::kAbort);

  const Program null_p = Assemble(
      "  func main()\n"
      "    movi %p, 8\n"
      "    load.4 %v, %p, 0\n"
      "    ret %v\n");
  EXPECT_EQ(ExpectBackendsAgree(null_p, {}).trap, TrapKind::kNullDeref);
}

TEST(BackendIdentity, StackOverflowBacktraceMatches) {
  const Program p = Assemble(
      "  func rec(d)\n"
      "    addi %d, %d, 1\n"
      "    call %r, rec(%d)\n"
      "    ret %r\n"
      "  func main()\n"
      "    movi %d, 0\n"
      "    call %r, rec(%d)\n"
      "    ret %r\n");
  const ExecResult r = ExpectBackendsAgree(p, {});
  EXPECT_EQ(r.trap, TrapKind::kStackOverflow);
}

TEST(BackendIdentity, CallBetweenFusiblePairsResumesCorrectly) {
  // The call splits a block whose decoded form has fused entries on both
  // sides; returning must resume at the correct original ip even though
  // that ip sits inside the decoded entry array.
  const Program p = Assemble(
      "  func half(x)\n"
      "    movi %two, 2\n"
      "    divu %r, %x, %two\n"
      "    ret %r\n"
      "  func main()\n"
      "    movi %a, 40\n"
      "    add %s, %a, %a\n"
      "    call %h, half(%s)\n"
      "    movi %b, 5\n"
      "    add %out, %h, %b\n"
      "    ret %out\n");
  const ExecResult r = ExpectBackendsAgree(p, {});
  EXPECT_EQ(r.trap, TrapKind::kNone);
  EXPECT_EQ(r.return_value, 45u);
}

TEST(BackendIdentity, FileReadAndTaintFlowThroughFusedLoop) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %n, 4\n"
      "    alloc %buf, %n\n"
      "    read %got, %buf, %n\n"
      "    movi %i, 0\n"
      "    movi %acc, 0\n"
      "    jmp L1\n"
      "  L1:\n"
      "    load.1 %v, %buf, 0\n"
      "    movi %k, 13\n"
      "    mul %v, %v, %k\n"
      "    store.1 %v, %buf, 1\n"
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %n\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %acc\n");
  const Bytes input = {0x11, 0x22, 0x33, 0x44};
  EXPECT_EQ(ExpectBackendsAgree(p, input).trap, TrapKind::kNone);
}

// -- Fuel exactness ------------------------------------------------------------

TEST(FuelExactness, BudgetLandsMidFusedEntryAtEveryOffset) {
  // 6 instructions + terminator per iteration, fused into pairs/triples.
  // Sweeping fuel over two full iterations plus the preamble forces the
  // budget boundary onto every possible position inside fused entries;
  // the threaded backend must stop after exactly `fuel` instructions,
  // matching the switch backend's count and trap.
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %i, 0\n"
      "    movi %n, 100000\n"
      "    jmp L1\n"
      "  L1:\n"
      "    movi %k, 5\n"
      "    add %acc, %acc, %k\n"
      "    movi %m, 9\n"
      "    xor %acc, %acc, %m\n"
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %n\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %acc\n");
  for (std::uint64_t fuel = 1; fuel <= 20; ++fuel) {
    const ExecResult r = ExpectBackendsAgree(p, {}, fuel);
    EXPECT_EQ(r.trap, TrapKind::kFuelExhausted) << "fuel=" << fuel;
    EXPECT_EQ(r.instructions, fuel) << "fuel=" << fuel;
  }
  // Around the interrupt-check stride boundary.
  for (const std::uint64_t fuel :
       {kInterpCheckStride - 1, kInterpCheckStride, kInterpCheckStride + 1,
        2 * kInterpCheckStride + 3}) {
    const ExecResult r = ExpectBackendsAgree(p, {}, fuel);
    EXPECT_EQ(r.trap, TrapKind::kFuelExhausted) << "fuel=" << fuel;
    EXPECT_EQ(r.instructions, fuel) << "fuel=" << fuel;
  }
}

// -- Strided deadline bound ----------------------------------------------------

class FlagRaiser : public ExecutionObserver {
 public:
  FlagRaiser(std::atomic<int>* flag, std::uint64_t at) : flag_(flag),
                                                         at_(at) {}
  void OnInstr(FuncId, BlockId, std::size_t, const Instr&, std::uint64_t,
               std::uint64_t) override {
    if (++seen_ == at_) flag_->store(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<int>* flag_;
  std::uint64_t at_;
  std::uint64_t seen_ = 0;
};

void ExpectDeadlineWithinStride(DispatchMode mode, bool fuse) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %i, 0\n"
      "    jmp L1\n"
      "  L1:\n"
      "    addi %i, %i, 1\n"
      "    movi %k, 1\n"
      "    add %j, %i, %k\n"
      "    jmp L1\n");
  // Raise the kill flag at a retired-instruction count that is NOT a
  // checkpoint; the backend must still observe it within one stride.
  const std::uint64_t raise_at = kInterpCheckStride + 37;
  std::atomic<int> flag{0};
  FlagRaiser raiser(&flag, raise_at);
  ExecOptions exec;
  exec.dispatch = mode;
  exec.fuse = fuse;
  exec.fuel = 1'000'000;  // far beyond the expected stop point
  exec.cancel = support::CancelToken(support::Deadline::Never(), &flag);
  Interpreter interp(p, {}, exec);
  interp.AddObserver(&raiser);
  const ExecResult r = interp.Run();
  EXPECT_EQ(r.trap, TrapKind::kDeadline);
  EXPECT_GE(r.instructions, raise_at);
  EXPECT_LE(r.instructions, raise_at + kInterpCheckStride)
      << "kDeadline must fire within one check stride of the flag";
}

TEST(DeadlineStride, SwitchBackendStopsWithinStride) {
  ExpectDeadlineWithinStride(DispatchMode::kSwitch, false);
}

TEST(DeadlineStride, ThreadedBackendStopsWithinStride) {
  ExpectDeadlineWithinStride(DispatchMode::kThreaded, false);
}

TEST(DeadlineStride, FusedBackendStopsWithinStride) {
  ExpectDeadlineWithinStride(DispatchMode::kThreaded, true);
}

TEST(DeadlineStride, PreTrippedTokenStopsBeforeTheFirstInstruction) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    jmp L0\n");
  for (const DispatchMode mode :
       {DispatchMode::kSwitch, DispatchMode::kThreaded}) {
    std::atomic<int> flag{1};
    ExecOptions exec;
    exec.dispatch = mode;
    exec.cancel = support::CancelToken(support::Deadline::Never(), &flag);
    const ExecResult r = Interpreter(p, {}, exec).Run();
    EXPECT_EQ(r.trap, TrapKind::kDeadline);
    EXPECT_EQ(r.instructions, 0u);
  }
}

// -- Fusion coverage -----------------------------------------------------------

TEST(Fusion, PeepholeFusesTheTargetedShapes) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %i, 0\n"
      "    movi %n, 10\n"
      "    jmp L1\n"
      "  L1:\n"
      "    movi %k, 3\n"          // movi+alu pair (b or c operand)
      "    add %acc, %acc, %k\n"
      "    addi %i, %i, 1\n"      // feeds the triple below
      "    movi %lim, 10\n"       // movi+cmp+br triple
      "    cmpltu %c, %i, %lim\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %acc\n");
  const DecodedProgram decoded = DecodeProgram(p, /*fuse=*/true);
  EXPECT_GE(decoded.stats.pairs, 1u);
  EXPECT_GE(decoded.stats.triples, 1u);
  std::uint64_t per_kind_sum = 0;
  for (std::size_t i = 0; i < kFusedOpCount; ++i) {
    per_kind_sum += decoded.stats.per_kind[i];
  }
  EXPECT_EQ(per_kind_sum, decoded.stats.pairs + decoded.stats.triples);

  // The unfused decode of the same program has only singles.
  const DecodedProgram plain = DecodeProgram(p, /*fuse=*/false);
  EXPECT_EQ(plain.stats.pairs, 0u);
  EXPECT_EQ(plain.stats.triples, 0u);
}

TEST(Fusion, EntryOfIpMapsEveryOriginalIp) {
  const Program p = Assemble(
      "  func main()\n"
      "    movi %a, 1\n"
      "    movi %b, 2\n"
      "    add %c, %a, %b\n"
      "    ret %c\n");
  const DecodedProgram decoded = DecodeProgram(p, /*fuse=*/true);
  const Block& block = p.functions[0].blocks[0];
  const DecodedBlock& dblock = decoded.fns[0].blocks[0];
  // One slot per original ip plus one for the terminator position.
  ASSERT_EQ(dblock.entry_of_ip.size(), block.instrs.size() + 1);
  for (const std::uint32_t entry : dblock.entry_of_ip) {
    EXPECT_LT(entry, dblock.code.size());
  }
  // The terminator position maps to the terminator-carrying entry.
  EXPECT_NE(dblock.code[dblock.entry_of_ip.back()].term, nullptr);
}

// -- Randomized program family -------------------------------------------------

/// Generates a bounded loop over a small buffer: fusible movi+alu
/// churn, addi+load/store traffic with occasionally out-of-range
/// offsets (so some seeds trap mid-loop), input reads, and a helper
/// call — the shapes the fusion pass and its resume paths must handle.
Program RandomProgram(std::uint64_t seed) {
  Rng rng(seed);
  const unsigned iters = 1 + rng.Below(40);
  const unsigned body_ops = 3 + rng.Below(10);
  static const char* kAlu[] = {"add", "sub", "mul", "and",
                               "or",  "xor", "shl", "shr"};
  std::string src =
      "  func helper(x)\n"
      "    movi %k, 3\n"
      "    mul %r, %x, %k\n"
      "    ret %r\n"
      "  func main()\n"
      "  L0:\n"
      "    movi %n, 32\n"
      "    alloc %buf, %n\n"
      "    movi %want, 8\n"
      "    read %got, %buf, %want\n"
      "    movi %i, 0\n"
      "    movi %lim, " + std::to_string(iters) + "\n"
      "    movi %v0, 1\n"
      "    movi %v1, 2\n"
      "    movi %v2, 3\n"
      "    jmp L1\n"
      "  L1:\n";
  for (unsigned i = 0; i < body_ops; ++i) {
    const unsigned kind = rng.Below(8);
    const std::string a = "%v" + std::to_string(rng.Below(3));
    const std::string b = "%v" + std::to_string(rng.Below(3));
    if (kind < 4) {
      // Fusible movi+alu pair.
      src += "    movi %t, " + std::to_string(rng.Below(64)) + "\n";
      src += std::string("    ") + kAlu[rng.Below(std::size(kAlu))] + " " +
             a + ", " + b + ", %t\n";
    } else if (kind < 6) {
      // addi+load (fusible); rarely past the end of the 32-byte buffer.
      const unsigned off = rng.Chance(1, 12) ? 30 : rng.Below(16);
      src += "    addi %p, %buf, " + std::to_string(off) + "\n";
      src += "    load.4 " + a + ", %p, 0\n";
    } else if (kind < 7) {
      src += "    store.2 " + a + ", %buf, " +
             std::to_string(rng.Below(12)) + "\n";
    } else {
      src += "    call " + a + ", helper(" + b + ")\n";
    }
  }
  src +=
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %lim\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %v0\n";
  return Assemble(src);
}

class RandomizedIdentity : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedIdentity, AllBackendsObserveTheSameExecution) {
  const std::uint64_t seed = 7'000 + GetParam();
  const Program p = RandomProgram(seed);
  Rng rng(seed * 31);
  const Bytes input = rng.RandomBytes(8);
  ExpectBackendsAgree(p, input, /*fuel=*/200'000);
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, RandomizedIdentity,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace octopocs::vm
