// Decided-loop jump identity suite.
//
// ExecutorOptions::cycle_skip also lets the directed stepper jump a
// decided counting loop to its θ cut (DESIGN §13.6): once one iteration
// moved only the induction registers, appended one unary constraint and
// asked one model-reuse hit and one zero-step wipeout miss, two
// refutations of the exit (the next iteration's and the last one's
// before the cut) decide every iteration in between, and the state dies
// loop-dead at the cut in one step. The contract is the cycle skip's:
// status, detail, poc', bunch offsets, the loop-dead flag and every
// SymexStats counter but the interner's equal the stepped run's. The
// shapes and states the jump must decline are here too: an exit that
// becomes feasible before the cut, inductions that wrap, continue
// constraints already on the path, bodies with a store or a call,
// budgets a crossed poll or the fuel would trip, and an armed fault.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "cfg/cfg.h"
#include "core/octopocs.h"
#include "core/report_io.h"
#include "gen/generator.h"
#include "support/fault.h"
#include "symex/executor.h"
#include "taint/crash_primitive.h"
#include "vm/asm.h"

namespace octopocs::symex {
namespace {

/// T plus its CFG. Not movable, since the CFG points at the program.
struct Target {
  explicit Target(vm::Program program)
      : t(std::move(program)), graph(cfg::Cfg::Build(t)) {}
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  /// GeneratePoc with one bunch that S's ℓ consumed right at its ep-time
  /// file position; ep `vuln` takes no recorded argument.
  SymexResult Generate(ExecutorOptions opts, bool skip) const {
    taint::Bunch bunch;
    bunch.bytes = {{8, 0x41}};
    bunch.file_pos_at_ep = 8;
    opts.cycle_skip = skip;
    SymExecutor exec(t, graph, t.FindFunction("vuln"), opts);
    return exec.GeneratePoc({bunch});
  }

  vm::Program t;
  cfg::Cfg graph;
};

/// T reads an 8-byte header; header byte 4 (`hot`) at or above `gate`
/// enters the loop, below it T returns without reaching ep. `init` runs
/// before the loop, `header` is the loop's first block (it ends in the
/// loop's branch, whose fallthrough `done` calls ep) and `step` closes
/// the loop with a jump back.
Target GatedLoop(const std::string& init, const std::string& header,
                 const std::string& step, int gate = 128) {
  return Target(vm::Assemble(
      "  func main()\n"
      "    movi %n, 8\n"
      "    alloc %buf, %n\n"
      "    read %got, %buf, %n\n"
      "    load.1 %hot, %buf, 4\n"
      "    movi %hlim, " +
      std::to_string(gate) +
      "\n"
      "    cmpltu %hsmall, %hot, %hlim\n"
      "    br %hsmall, cold, warm\n"
      "  cold:\n"
      "    movi %cret, 0\n"
      "    ret %cret\n"
      "  warm:\n" +
      init +
      "    jmp loop\n"
      "  loop:\n" +
      header +
      "  step:\n" +
      step +
      "    jmp loop\n"
      "  done:\n"
      "    call %r, vuln(%hot)\n"
      "    ret %r\n"
      "  func vuln(x)\n"
      "    ret %x\n"
      "  func leaf(v)\n"
      "    ret %v\n"));
}

/// The generator's symex-hostile warm-up loop: i counts up from 0
/// against 16·hot ∈ [2048, 4080], so every iteration before the θ cut
/// refutes the exit. `lead` movi instructions before it shift which
/// step of an iteration each poll meets.
Target WarmUpLoop(int lead = 0) {
  std::string init;
  for (int i = 0; i < lead; ++i) init += "    movi %z, 0\n";
  return GatedLoop(
      init +
      "    movi %wsh, 4\n"
      "    shl %wbound, %hot, %wsh\n"
      "    movi %wi, 0\n",
      "    cmpltu %wmore, %wi, %wbound\n"
      "    br %wmore, step, done\n",
      "    addi %wi, %wi, 1\n");
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
  EXPECT_EQ(a.solver_exact_hits, b.solver_exact_hits) << what;
  EXPECT_EQ(a.solver_subsumption_hits, b.solver_subsumption_hits) << what;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << what;
  EXPECT_EQ(a.instructions_skipped, 0u) << what;
}

/// The wire form of a report with its timings zeroed.
std::string Canonical(core::VerificationReport report) {
  report.timings = {};
  return core::SerializeReport(report);
}

std::uint64_t Stepped(const SymexResult& r) {
  return r.stats.instructions - r.stats.instructions_skipped;
}

ExecutorOptions WithTheta(std::uint32_t theta) {
  ExecutorOptions opts;
  opts.theta = theta;
  opts.max_input_size = 64;
  return opts;
}

/// Runs `t` with the jump off and on and holds them equal. Returns the
/// run with it on.
SymexResult SameBothWays(const Target& t, const ExecutorOptions& opts,
                         const std::string& what) {
  const SymexResult off = t.Generate(opts, false);
  const SymexResult on = t.Generate(opts, true);
  ExpectSameRun(off, on, what);
  return on;
}

TEST(LoopJump, WarmUpLoopJumpsToTheCut) {
  // 480 and 1920 walk past polls, so the jump must charge the last one
  // the footprint it would read; the leads put that poll on each of an
  // iteration's four steps, before and after its branch appends.
  for (int lead = 0; lead < 4; ++lead) {
    const Target t = WarmUpLoop(lead);
    for (const std::uint32_t theta : {120u, 480u, 1920u}) {
      const std::string what =
          "lead " + std::to_string(lead) + " theta " + std::to_string(theta);
      const SymexResult on = SameBothWays(t, WithTheta(theta), what);
      EXPECT_EQ(on.status, SymexStatus::kProgramDead) << what;
      EXPECT_TRUE(on.loop_dead_observed) << what;
      // Two iterations stepped, and the prefix: stepping to the cut
      // takes four instructions per iteration.
      EXPECT_LE(Stepped(on), 64u) << what;
      EXPECT_GT(on.stats.instructions, 4u * theta) << what;
    }
  }
}

TEST(LoopJump, GeneratedHostilePairIsIdentical) {
  // The generator's own pair through the whole pipeline: the report and
  // the symbolic counters equal the stepped run's at every θ.
  gen::GeneratedPair pair;
  for (int ordinal = 0;; ++ordinal) {
    pair = gen::BuildGeneratedPair(2, ordinal);
    if (pair.mutation == "symex-hostile") break;
  }
  for (const std::uint32_t theta : {120u, 480u, 1920u}) {
    const std::string what = "theta " + std::to_string(theta);
    core::PipelineOptions opts;
    opts.symex.theta = theta;
    opts.symex.cycle_skip = false;
    const core::VerificationReport off = core::VerifyPair(pair.pair, opts);
    opts.symex.cycle_skip = true;
    const core::VerificationReport on = core::VerifyPair(pair.pair, opts);
    EXPECT_EQ(Canonical(off), Canonical(on)) << what;
    const SymexStats& a = off.symex_stats;
    const SymexStats& b = on.symex_stats;
    EXPECT_EQ(a.states_created, b.states_created) << what;
    EXPECT_EQ(a.peak_live_states, b.peak_live_states) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.solver_steps, b.solver_steps) << what;
    EXPECT_EQ(a.solver_cache_hits, b.solver_cache_hits) << what;
    EXPECT_EQ(a.solver_cache_misses, b.solver_cache_misses) << what;
    EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << what;
    EXPECT_EQ(a.instructions_skipped, 0u) << what;
    // The stepped walk at θ = 120 reads 533 instructions.
    EXPECT_LE(b.instructions - b.instructions_skipped, 128u) << what;
  }
}

TEST(LoopJump, ExitFeasibleBeforeTheCutForksWhereSteppingDoes) {
  // i < hot with hot ∈ [128, 255]: the exit is refuted for i < 128 and
  // feasible from there, before the cut at 200. The far refutation
  // fails, so the state steps to the fork.
  const Target t = GatedLoop("    movi %wi, 0\n",
                             "    cmpltu %wmore, %wi, %hot\n"
                             "    br %wmore, step, done\n",
                             "    addi %wi, %wi, 1\n");
  const SymexResult on = SameBothWays(t, WithTheta(200), "exit at 128");
  EXPECT_EQ(on.status, SymexStatus::kPocGenerated);
  EXPECT_GT(on.stats.states_created, 1u);
  EXPECT_EQ(on.stats.instructions_skipped, 0u);
}

TEST(LoopJump, DecreasingInductionJumps) {
  // i counts down from 5000 while i > 16·hot (at most 4080).
  const Target t = GatedLoop(
      "    movi %wsh, 4\n"
      "    shl %wbound, %hot, %wsh\n"
      "    movi %wi, 5000\n",
      "    cmpgtu %wmore, %wi, %wbound\n"
      "    br %wmore, step, done\n",
      "    addi %wi, %wi, -1\n");
  const SymexResult on = SameBothWays(t, WithTheta(480), "down");
  EXPECT_TRUE(on.loop_dead_observed);
  EXPECT_LE(Stepped(on), 64u);
}

TEST(LoopJump, CounterAfterItsAddAndExitOnTheTakenSideJumps) {
  // The compare reads the counter after its add, and the branch leaves
  // on its taken side, so the continue constraint is the compare under
  // == 0.
  const Target t = GatedLoop(
      "    movi %wsh, 4\n"
      "    shl %wbound, %hot, %wsh\n"
      "    movi %wi, 0\n",
      "    addi %wi, %wi, 1\n"
      "    cmpgeu %wdone, %wi, %wbound\n"
      "    br %wdone, done, step\n",
      "    movi %wtmp, 0\n");
  const SymexResult on = SameBothWays(t, WithTheta(480), "after add");
  EXPECT_TRUE(on.loop_dead_observed);
  EXPECT_LE(Stepped(on), 64u);
}

TEST(LoopJump, SignedCompareStepsAndSignedWrapDeclines) {
  // MiniVM compares unsigned only; a signed compare is one biased by the
  // sign bit. Its compare reads a scratch register, not the counter, so
  // the shape rule declines it.
  const Target biased = GatedLoop(
      "    movi %wsh, 4\n"
      "    shl %wbound, %hot, %wsh\n"
      "    movi %sign, 0x8000000000000000\n"
      "    xor %sbound, %wbound, %sign\n"
      "    movi %wi, 0\n",
      "    xor %si, %wi, %sign\n"
      "    cmpltu %wmore, %si, %sbound\n"
      "    br %wmore, step, done\n",
      "    addi %wi, %wi, 1\n");
  const SymexResult a = SameBothWays(biased, WithTheta(240), "biased");
  EXPECT_TRUE(a.loop_dead_observed);
  EXPECT_EQ(a.stats.instructions_skipped, 0u);
  // An unsigned compare whose counter crosses 2^63 wraps as a signed
  // value: the jump declines it too. hot >= 129 keeps 2^56·hot above
  // every counter value before the cut.
  const Target crossing = GatedLoop(
      "    movi %wsh, 56\n"
      "    shl %wbound, %hot, %wsh\n"
      "    movi %wi, 0x7FFFFFFFFFFFFFC0\n",
      "    cmpltu %wmore, %wi, %wbound\n"
      "    br %wmore, step, done\n",
      "    addi %wi, %wi, 1\n",
      /*gate=*/129);
  const SymexResult b = SameBothWays(crossing, WithTheta(240), "signed wrap");
  EXPECT_TRUE(b.loop_dead_observed);
  EXPECT_EQ(b.stats.instructions_skipped, 0u);
}

TEST(LoopJump, UnsignedWrapInsideTheRangeForksWhereSteppingDoes) {
  // i starts 40 below 2^64 and steps by 3 while i >= hot: both ends of
  // the walk refute the exit, but i wraps to 2 in between, where only
  // the exit is feasible and the state leaves the loop for ep. The
  // jump must not kill it at the cut instead. (The no-wrap rule and the
  // check for continue constraints already on the path both decline
  // it: across a wrap the walk's value range holds the iterations
  // already stepped.)
  const Target t = GatedLoop("    movi %wi, -40\n",
                             "    cmpgeu %wmore, %wi, %hot\n"
                             "    br %wmore, step, done\n",
                             "    addi %wi, %wi, 3\n");
  const SymexResult on = SameBothWays(t, WithTheta(120), "wrap");
  EXPECT_EQ(on.status, SymexStatus::kPocGenerated);
  EXPECT_FALSE(on.loop_dead_observed);
  EXPECT_EQ(on.stats.instructions_skipped, 0u);
}

TEST(LoopJump, ContinueConstraintsAlreadyOnThePathStep) {
  // hot = 255, and `spin` runs the same loop twice against it, from 10
  // and then from 0. The first run appends i < hot for i = 10..254 (its
  // far exit is feasible, so it steps); in the second, the continue
  // constraints from i = 10 on are already on the path and append as
  // repeats (no layer entry, no fold), which the jump's footprint replay
  // does not model. The second run must step to the cut.
  const Target t(vm::Assemble(
      "  func main()\n"
      "    movi %n, 8\n"
      "    alloc %buf, %n\n"
      "    read %got, %buf, %n\n"
      "    load.1 %hot, %buf, 4\n"
      "    movi %hlim, 255\n"
      "    cmpltu %hsmall, %hot, %hlim\n"
      "    br %hsmall, cold, warm\n"
      "  cold:\n"
      "    movi %cret, 0\n"
      "    ret %cret\n"
      "  warm:\n"
      "    movi %start, 10\n"
      "    call %a, spin(%start, %hot)\n"
      "    movi %start, 0\n"
      "    call %b, spin(%start, %hot)\n"
      "    call %r, vuln(%hot)\n"
      "    ret %r\n"
      "  func spin(i, bound)\n"
      "    jmp loop\n"
      "  loop:\n"
      "    cmpltu %more, %i, %bound\n"
      "    br %more, step, out\n"
      "  step:\n"
      "    addi %i, %i, 1\n"
      "    movi %t, 0\n"
      "    movi %t, 0\n"
      "    movi %t, 0\n"
      "    movi %t, 0\n"
      "    movi %t, 0\n"
      "    movi %t, 0\n"
      "    jmp loop\n"
      "  out:\n"
      "    ret %i\n"
      "  func vuln(x)\n"
      "    ret %x\n"));
  const SymexResult on = SameBothWays(t, WithTheta(480), "repeats");
  EXPECT_TRUE(on.loop_dead_observed);
  EXPECT_EQ(on.stats.instructions_skipped, 0u);
}

TEST(LoopJump, BodyWithAStoreOrACallSteps) {
  const char* const steps[] = {
      "    addi %wi, %wi, 1\n"
      "    store.8 %wi, %buf, 0\n",
      "    addi %wi, %wi, 1\n"
      "    call %z, leaf(%wi)\n",
  };
  for (const char* step : steps) {
    const Target t = GatedLoop(
        "    movi %wsh, 4\n"
        "    shl %wbound, %hot, %wsh\n"
        "    movi %wi, 0\n",
        "    cmpltu %wmore, %wi, %wbound\n"
        "    br %wmore, step, done\n",
        step);
    const SymexResult on = SameBothWays(t, WithTheta(120), step);
    EXPECT_TRUE(on.loop_dead_observed) << step;
    EXPECT_EQ(on.stats.instructions_skipped, 0u) << step;
  }
}

TEST(LoopJump, MemoryBudgetACrossedPollTripsStopsTheJump) {
  // The stepped walk at θ = 1920 peaks at its last poll; a budget one
  // byte under that peak trips there. The jump must step to that poll
  // instead of jumping past it.
  const Target t = WarmUpLoop();
  ExecutorOptions opts = WithTheta(1920);
  const SymexResult free_run = t.Generate(opts, false);
  opts.max_memory_bytes = free_run.stats.peak_memory_bytes - 1;
  const SymexResult on = SameBothWays(t, opts, "memory budget");
  EXPECT_EQ(on.status, SymexStatus::kBudget);
  EXPECT_EQ(on.detail, "memory budget exceeded");
  EXPECT_LT(on.stats.instructions, free_run.stats.instructions);
}

TEST(LoopJump, InstructionBudgetOrFuelRunningOutMidWalkSteps) {
  const Target t = WarmUpLoop();
  ExecutorOptions opts = WithTheta(1920);
  opts.max_instructions = 4000;
  const SymexResult run = SameBothWays(t, opts, "run budget");
  EXPECT_EQ(run.status, SymexStatus::kBudget);
  EXPECT_EQ(run.detail, "global instruction budget exceeded");
  EXPECT_EQ(run.stats.instructions, 4096u);

  opts = WithTheta(1920);
  opts.max_state_instructions = 3000;
  const SymexResult fuel = SameBothWays(t, opts, "state fuel");
  EXPECT_FALSE(fuel.loop_dead_observed);
  EXPECT_EQ(fuel.stats.instructions_skipped, 0u);
}

TEST(LoopJump, ArmedFaultStandsTheJumpDown) {
  // Fault injection counts wipeouts as solver steps; with a fault armed
  // the jump must not skip them. The armed site never fires here.
  const Target t = WarmUpLoop();
  const ExecutorOptions opts = WithTheta(120);
  const SymexResult off = t.Generate(opts, false);
  support::fault::Arm(support::FaultSite::kStateFork, 1'000);
  const SymexResult on = t.Generate(opts, true);
  const std::uint64_t fired = support::fault::fired_count();
  support::fault::Disarm();
  EXPECT_EQ(fired, 0u);
  ExpectSameRun(off, on, "fault armed");
  EXPECT_EQ(on.stats.instructions_skipped, 0u);
}

}  // namespace
}  // namespace octopocs::symex
