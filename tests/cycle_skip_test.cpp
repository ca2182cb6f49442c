// Exact-cycle fast-forward identity suite.
//
// ExecOptions::cycle_skip lets the interpreter detect that a hung
// program's complete machine state repeats with period p and jump the
// instruction counter forward whole periods instead of re-executing
// them. The contract is byte-identity: trap, trap message, instruction
// count, backtrace, and every observer's final state must equal the
// unskipped run's — only wall-clock may differ. These tests pin that
// contract on hung loops (the CWE-835 shape that motivated the skip),
// on terminating programs (where the skip must be a no-op), and on the
// safety valve that disables skipping when an attached observer cannot
// snapshot its state.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/bytes.h"
#include "taint/taint_engine.h"
#include "vm/asm.h"
#include "vm/interp.h"

namespace octopocs::vm {
namespace {

ExecResult Execute(const Program& program, const Bytes& input, bool cycle_skip,
                   std::uint64_t fuel, taint::TaintEngine* taint = nullptr) {
  ExecOptions exec;
  exec.fuel = fuel;
  exec.cycle_skip = cycle_skip;
  Interpreter interp(program, ByteView(input), exec);
  if (taint != nullptr) interp.AddObserver(taint);
  return interp.Run();
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
    EXPECT_EQ(a.backtrace[i].fn, b.backtrace[i].fn) << what << " " << i;
    EXPECT_EQ(a.backtrace[i].block, b.backtrace[i].block) << what << " " << i;
    EXPECT_EQ(a.backtrace[i].ip, b.backtrace[i].ip) << what << " " << i;
  }
}

/// A state-stationary hang: after the prologue the loop body recomputes
/// the same register values forever, so the machine state at the loop
/// head is literally periodic — the shape the fast-forward detects.
Program HungLoop() {
  return Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %a, 1\n"
      "    jmp L1\n"
      "  L1:\n"
      "    movi %b, 7\n"
      "    add %a, %b, %b\n"
      "    movi %a, 1\n"
      "    jmp L1\n");
  // unreachable ret: the loop never exits
}

TEST(CycleSkip, HungLoopFuelTrapIsByteIdentical) {
  const Program p = HungLoop();
  const ExecResult off = Execute(p, {}, /*cycle_skip=*/false, 200'000);
  const ExecResult on = Execute(p, {}, /*cycle_skip=*/true, 200'000);
  ExpectSameResult(off, on, "skip off vs on");
  EXPECT_EQ(on.trap, TrapKind::kFuelExhausted);
  EXPECT_EQ(on.instructions, 200'000u);
}

TEST(CycleSkip, FuelResidualLandsMidPeriod) {
  // Sweep fuel values around the loop period so the residual after the
  // last whole-period jump lands on every instruction of the body; the
  // retired count and trap must match the unskipped run each time.
  const Program p = HungLoop();
  for (std::uint64_t fuel = 50'000; fuel < 50'012; ++fuel) {
    const ExecResult off = Execute(p, {}, false, fuel);
    const ExecResult on = Execute(p, {}, true, fuel);
    ExpectSameResult(off, on, "mid-period residual");
    EXPECT_EQ(on.instructions, fuel);
  }
}

TEST(CycleSkip, HungFileReadLoopWithTaintObserverIsIdentical) {
  // A loop that keeps issuing file reads: once the 2-byte PoC is
  // consumed, every further read returns short at EOF and the machine
  // state — including the file position and the taint engine's state,
  // which participates in the snapshot identity — becomes periodic. The
  // engine's final serialized state must match the unskipped run's.
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %n, 16\n"
      "    alloc %buf, %n\n"
      "    jmp L1\n"
      "  L1:\n"
      "    movi %one, 1\n"
      "    read %got, %buf, %one\n"
      "    jmp L1\n");
  const Bytes input = {0x41, 0x42};

  taint::TaintEngine off_engine(p);
  const ExecResult off =
      Execute(p, input, /*cycle_skip=*/false, 100'000, &off_engine);
  taint::TaintEngine on_engine(p);
  const ExecResult on =
      Execute(p, input, /*cycle_skip=*/true, 100'000, &on_engine);

  ExpectSameResult(off, on, "hung read loop");
  EXPECT_EQ(on.trap, TrapKind::kFuelExhausted);
  EXPECT_EQ(on.instructions, 100'000u);
  std::vector<std::uint8_t> off_state, on_state;
  ASSERT_TRUE(off_engine.SnapshotState(&off_state));
  ASSERT_TRUE(on_engine.SnapshotState(&on_state));
  EXPECT_EQ(on_state, off_state)
      << "taint state diverged between skip off and on";
}

TEST(CycleSkip, TerminatingProgramIsUntouched) {
  const Program p = Assemble(
      "  func main()\n"
      "  L0:\n"
      "    movi %i, 0\n"
      "    movi %n, 5000\n"
      "    movi %acc, 0\n"
      "    jmp L1\n"
      "  L1:\n"
      "    addi %acc, %acc, 3\n"
      "    addi %i, %i, 1\n"
      "    cmpltu %c, %i, %n\n"
      "    br %c, L1, L2\n"
      "  L2:\n"
      "    ret %acc\n");
  const ExecResult off = Execute(p, {}, false, 100'000);
  const ExecResult on = Execute(p, {}, true, 100'000);
  ExpectSameResult(off, on, "terminating program");
  EXPECT_EQ(on.trap, TrapKind::kNone);
  EXPECT_EQ(on.return_value, 15'000u);
}

/// An observer that cannot serialize its state (SnapshotState keeps the
/// default false return) but observes every retired instruction. With it
/// attached, the interpreter must refuse to skip — otherwise the
/// observer would miss the fast-forwarded instructions.
class CountingObserver : public ExecutionObserver {
 public:
  void OnInstr(FuncId, BlockId, std::size_t, const Instr&, std::uint64_t,
               std::uint64_t) override {
    ++instrs;
  }
  std::uint64_t instrs = 0;
};

TEST(CycleSkip, SnapshotlessObserverDisablesTheSkip) {
  const Program p = HungLoop();
  const Bytes no_input;
  std::uint64_t counts[2] = {0, 0};
  for (const bool skip : {false, true}) {
    ExecOptions exec;
    exec.fuel = 50'000;
    exec.cycle_skip = skip;
    CountingObserver counter;
    Interpreter interp(p, ByteView(no_input), exec);
    interp.AddObserver(&counter);
    const ExecResult r = interp.Run();
    EXPECT_EQ(r.trap, TrapKind::kFuelExhausted);
    counts[skip ? 1 : 0] = counter.instrs;
  }
  // The observer cannot snapshot, so the skip must disable itself: the
  // observer sees exactly as many retirements as in the honest run —
  // a fast-forward would have cut the count by orders of magnitude.
  EXPECT_EQ(counts[1], counts[0]);
  EXPECT_GT(counts[1], 25'000u);
}

}  // namespace
}  // namespace octopocs::vm
