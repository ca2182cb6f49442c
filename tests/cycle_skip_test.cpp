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
//
// ExecutorOptions::cycle_skip is the same fast-forward in the symbolic
// stepper, for a state that keeps running through ℓ after the final
// bunch. SymCycleSkip.* holds it to the same contract: status, detail,
// poc', bunch offsets and every SymexStats counter but the interner hits
// (and the skip counter itself) equal the stepped run's.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cfg/cfg.h"
#include "support/bytes.h"
#include "support/fault.h"
#include "symex/executor.h"
#include "taint/crash_primitive.h"
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

namespace octopocs::symex {
namespace {

/// T plus its CFG, built once per program: recovering the CFG runs T's
/// hang concretely to the fuel bound. Not movable, since the CFG points
/// at the program.
struct Target {
  explicit Target(vm::Program program)
      : t(std::move(program)), graph(cfg::Cfg::Build(t)) {}
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  /// GeneratePoc with one bunch: ep's argument was 0x10 in S, and S's ℓ
  /// consumed one byte (0x41) right at its ep-time file position.
  SymexResult Generate(ExecutorOptions opts, bool skip) const {
    taint::Bunch bunch;
    bunch.bytes = {{2, 0x41}};
    bunch.ep_args = {0x10};
    bunch.file_pos_at_ep = 2;
    opts.cycle_skip = skip;
    SymExecutor exec(t, graph, t.FindFunction("vuln"), opts);
    return exec.GeneratePoc({bunch});
  }

  vm::Program t;
  cfg::Cfg graph;
};

/// T reads a 2-byte header, branches on its second (symbolic) byte and
/// calls ep `vuln` with the first. ℓ then runs `body`, which never
/// leaves it. The branch queues a fork, so the hang runs with a sibling
/// sharing its pages and maps.
Target HangInEp(const std::string& body) {
  return Target(vm::Assemble(
      "  func main()\n"
      "    movi %n, 4\n"
      "    alloc %buf, %n\n"
      "    movi %two, 2\n"
      "    read %got, %buf, %two\n"
      "    load.1 %a, %buf, 0\n"
      "    load.1 %b, %buf, 1\n"
      "    movi %lim, 0x40\n"
      "    cmpltu %c, %b, %lim\n"
      "    br %c, lo, hi\n"
      "  lo:\n"
      "    call %v, vuln(%a)\n"
      "    ret %v\n"
      "  hi:\n"
      "    call %w, vuln(%a)\n"
      "    ret %w\n"
      "  func vuln(x)\n" +
      body));
}

void ExpectSameRun(const SymexResult& off, const SymexResult& on,
                   const std::string& what) {
  EXPECT_EQ(off.status, on.status) << what;
  EXPECT_EQ(off.detail, on.detail) << what;
  EXPECT_EQ(off.poc, on.poc) << what;
  EXPECT_EQ(off.bunch_offsets, on.bunch_offsets) << what;
  EXPECT_EQ(off.loop_dead_observed, on.loop_dead_observed) << what;
  const SymexStats& a = off.stats;
  const SymexStats& b = on.stats;
  EXPECT_EQ(a.states_created, b.states_created) << what;
  EXPECT_EQ(a.peak_live_states, b.peak_live_states) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.solver_steps, b.solver_steps) << what;
  EXPECT_EQ(a.solver_cache_hits, b.solver_cache_hits) << what;
  EXPECT_EQ(a.solver_cache_misses, b.solver_cache_misses) << what;
  EXPECT_EQ(a.solver_model_reuse_hits, b.solver_model_reuse_hits) << what;
  EXPECT_EQ(a.expr_intern_nodes, b.expr_intern_nodes) << what;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << what;
  EXPECT_EQ(a.instructions_skipped, 0u) << what;
}

/// The skip fired and took most of the run, and the skipped
/// instructions never reached the interner. (Small constants are static
/// nodes, so a loop over them makes no interner hits either way.)
void ExpectSkipped(const SymexResult& off, const SymexResult& on) {
  EXPECT_GT(on.stats.instructions_skipped, on.stats.instructions / 2);
  EXPECT_LE(on.stats.expr_intern_hits, off.stats.expr_intern_hits);
}

ExecutorOptions SmallCaps(std::uint64_t per_state) {
  ExecutorOptions opts;
  opts.max_state_instructions = per_state;
  opts.max_input_size = 64;
  return opts;
}

const char* const kConstantSpin =
    "    movi %k, 3\n"
    "    jmp spin\n"
    "  spin:\n"
    "    movi %b, 7\n"
    "    add %c, %b, %k\n"
    "    jmp spin\n";

/// An 8-instruction period that is inside a call for one of them, where
/// the state's footprint peaks. Polls land every 1024 instructions, so
/// they all see the same phase, and a jump that broke that alignment
/// would read a different peak.
const char* const kCallSpin =
    "    jmp spin\n"
    "  spin:\n"
    "    movi %k, 1\n"
    "    movi %k, 2\n"
    "    movi %k, 3\n"
    "    movi %k, 4\n"
    "    movi %k, 5\n"
    "    call %r, leaf(%k)\n"
    "    jmp spin\n"
    "  func leaf(v)\n"
    "    ret %v\n";

TEST(SymCycleSkip, HungConstantLoopInsideEpIsIdentical) {
  const Target t = HangInEp(kConstantSpin);
  const ExecutorOptions opts = SmallCaps(200'000);
  const SymexResult off = t.Generate(opts, false);
  const SymexResult on = t.Generate(opts, true);
  ExpectSameRun(off, on, "constant hang");
  ExpectSkipped(off, on);
  EXPECT_LT(on.stats.expr_intern_hits, off.stats.expr_intern_hits / 4);
  // The state hit its fuel cap inside ℓ and finalized: ep's argument
  // is pinned at offset 0 and the bunch byte lands at T's position 2.
  EXPECT_EQ(on.status, SymexStatus::kPocGenerated);
  EXPECT_EQ(on.poc, (Bytes{0x10, 0x00, 0x41}));
  EXPECT_EQ(on.bunch_offsets, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(on.stats.states_created, 2u);
}

TEST(SymCycleSkip, ResidualSweepAcrossOnePeriod) {
  // The per-state cap moves through a whole loop period and across a
  // poll boundary, so the residual after the jump ends on every
  // instruction of the body.
  const Target t = HangInEp(kConstantSpin);
  for (std::uint64_t cap = 20'470; cap < 20'486; ++cap) {
    const ExecutorOptions opts = SmallCaps(cap);
    const SymexResult off = t.Generate(opts, false);
    const SymexResult on = t.Generate(opts, true);
    ExpectSameRun(off, on, "cap " + std::to_string(cap));
    EXPECT_GT(on.stats.instructions_skipped, 0u) << cap;
  }
}

TEST(SymCycleSkip, GlobalBudgetBindsOnTheSameInstruction) {
  // max_instructions binds before the per-state cap: both runs stop
  // with the same kBudget at the same poll, having read the same peak
  // footprint on the way.
  for (const char* body : {kConstantSpin, kCallSpin}) {
    const Target t = HangInEp(body);
    std::vector<std::uint64_t> budgets = {131'072};
    for (std::uint64_t b = 100'000; b < 100'009; ++b) budgets.push_back(b);
    for (const std::uint64_t budget : budgets) {
      ExecutorOptions opts = SmallCaps(2'000'000);
      opts.max_instructions = budget;
      const SymexResult off = t.Generate(opts, false);
      const SymexResult on = t.Generate(opts, true);
      const std::string what = std::string(body) + " budget " +
                               std::to_string(budget);
      ExpectSameRun(off, on, what);
      ExpectSkipped(off, on);
      EXPECT_EQ(on.status, SymexStatus::kBudget) << what;
      EXPECT_EQ(on.detail, "global instruction budget exceeded") << what;
    }
  }
}

TEST(SymCycleSkip, LoopStoringTheSameValueStillSkips) {
  // The first loop writes the same expressions to the same cells every
  // iteration, so memory is unchanged across a period. The second keeps
  // a byte counter in memory, which wraps: its state repeats every 256
  // iterations.
  const char* const bodies[] = {
      "    movi %n, 8\n"
      "    alloc %p, %n\n"
      "    jmp spin\n"
      "  spin:\n"
      "    movi %v, 0x5a\n"
      "    store.1 %v, %p, 3\n"
      "    store.1 %x, %p, 5\n"
      "    jmp spin\n",
      "    movi %n, 8\n"
      "    alloc %p, %n\n"
      "    jmp spin\n"
      "  spin:\n"
      "    load.1 %t, %p, 0\n"
      "    addi %t, %t, 1\n"
      "    store.1 %t, %p, 0\n"
      "    movi %t, 0\n"
      "    jmp spin\n"};
  for (const char* body : bodies) {
    const Target t = HangInEp(body);
    const ExecutorOptions opts = SmallCaps(200'000);
    const SymexResult off = t.Generate(opts, false);
    const SymexResult on = t.Generate(opts, true);
    ExpectSameRun(off, on, body);
    ExpectSkipped(off, on);
    EXPECT_EQ(on.status, SymexStatus::kPocGenerated) << body;
  }
}

TEST(SymCycleSkip, CounterLoopNeverSkips) {
  // A counter never repeats, so no two polls see the same state. The
  // second loop keeps its counter in memory only: its registers are the
  // same at every loop head.
  const char* const bodies[] = {
      "    movi %i, 0\n"
      "    jmp spin\n"
      "  spin:\n"
      "    addi %i, %i, 1\n"
      "    jmp spin\n",
      "    movi %n, 8\n"
      "    alloc %p, %n\n"
      "    jmp spin\n"
      "  spin:\n"
      "    load.8 %t, %p, 0\n"
      "    addi %t, %t, 1\n"
      "    store.8 %t, %p, 0\n"
      "    movi %t, 0\n"
      "    jmp spin\n"};
  for (const char* body : bodies) {
    const Target t = HangInEp(body);
    const ExecutorOptions opts = SmallCaps(40'000);
    const SymexResult off = t.Generate(opts, false);
    const SymexResult on = t.Generate(opts, true);
    ExpectSameRun(off, on, body);
    EXPECT_EQ(on.stats.instructions_skipped, 0u) << body;
    EXPECT_EQ(on.stats.expr_intern_hits, off.stats.expr_intern_hits) << body;
    EXPECT_EQ(on.status, SymexStatus::kPocGenerated) << body;
  }
}

TEST(SymCycleSkip, ReadLoopSkipsOnlyAfterEof) {
  // ℓ keeps reading one byte: the file position, the read record and
  // the poc' length grow until the symbolic file bound, after which
  // every read returns 0 and the state repeats. poc' must still cover
  // every byte read before EOF.
  const Target t = HangInEp(
      "    movi %n, 4\n"
      "    alloc %p, %n\n"
      "    movi %one, 1\n"
      "    jmp spin\n"
      "  spin:\n"
      "    read %got, %p, %one\n"
      "    jmp spin\n");
  const ExecutorOptions opts = SmallCaps(200'000);
  const SymexResult off = t.Generate(opts, false);
  const SymexResult on = t.Generate(opts, true);
  ExpectSameRun(off, on, "read loop");
  ExpectSkipped(off, on);
  EXPECT_EQ(on.status, SymexStatus::kPocGenerated);
  EXPECT_EQ(on.poc.size(), opts.max_input_size);
}

TEST(SymCycleSkip, ArmedFaultStandsTheSkipDown) {
  // Fault injection counts the stepper's polls; with a fault armed the
  // skip must not move them. The armed site never fires in this run.
  const Target t = HangInEp(kConstantSpin);
  const ExecutorOptions opts = SmallCaps(100'000);
  const SymexResult off = t.Generate(opts, false);
  support::fault::Arm(support::FaultSite::kStateFork, 1'000);
  const SymexResult on = t.Generate(opts, true);
  const std::uint64_t fired = support::fault::fired_count();
  support::fault::Disarm();
  EXPECT_EQ(fired, 0u);
  ExpectSameRun(off, on, "fault armed");
  EXPECT_EQ(on.stats.instructions_skipped, 0u);
  EXPECT_EQ(on.stats.expr_intern_hits, off.stats.expr_intern_hits);
}

}  // namespace
}  // namespace octopocs::symex
