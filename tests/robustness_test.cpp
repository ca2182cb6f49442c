// Robustness: deadlines, cancellation, fault injection, and graceful
// degradation (DESIGN.md §9).
//
// The contract under test: no matter how a phase dies — wall-clock
// expiry, an external kill switch, an injected tooling fault, a solver
// budget — the pipeline returns a well-formed kFailure report that names
// the phase and the failure class, never a wrong verdict, a crash, or a
// hang. Deadline tests use deliberately pathological workloads (an
// unbounded concrete loop; an UNSAT multiplication constraint whose CSP
// search is astronomically large) so that only the clock can end them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/artifact_disk.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"
#include "corpus/pairs.h"
#include "support/deadline.h"
#include "support/fault.h"
#include "vm/asm.h"

namespace octopocs::core {
namespace {

using support::CancelToken;
using support::Deadline;
using support::FaultSite;

double ElapsedSeconds(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       from)
      .count();
}

// Same shared ℓ as adaptive_theta_test: 1-byte read, OOB store when the
// byte is >= 4. S(0xF7) crashes inside vuln, so ep discovery, taint,
// and the whole pipeline run on any T that links it.
constexpr const char* kShared = R"(
  func vuln(mode)
    movi %one, 1
    alloc %rec, %one
    read %got, %rec, %one
    load.1 %c, %rec, 0
    movi %lim, 4
    alloc %tbl, %lim
    add %p, %tbl, %c
    store.1 %one, %p, 0      ; OOB when c >= 4
    ret %c
)";

constexpr const char* kSMain = R"(
  func main()
    movi %zero, 0
    call %v, vuln(%zero)
    ret %v
)";

// T whose path condition is UNSAT but astronomically expensive to
// refute: b0*b1 + b2*b3 caps at 130050, so == 130051 has no model, yet
// the CSP search must enumerate ~256^3 partial assignments to prove it.
// Only a deadline (or a step budget) can end P2/P3 on this program.
constexpr const char* kHardSolverTMain = R"(
  func main()
    movi %four, 4
    alloc %buf, %four
    read %got, %buf, %four
    load.1 %b0, %buf, 0
    load.1 %b1, %buf, 1
    load.1 %b2, %buf, 2
    load.1 %b3, %buf, 3
    mul %p0, %b0, %b1
    mul %p1, %b2, %b3
    add %s, %p0, %p1
    movi %k, 130051
    cmpeq %ok, %s, %k
    assert %ok
    movi %zero, 0
    call %v, vuln(%zero)
    ret %v
)";

// T with a genuine two-way symbolic fork: both directions reach ep, so
// StepBranch must clone the state (the kStateFork fault site).
constexpr const char* kForkingTMain = R"(
  func main()
    movi %one, 1
    alloc %buf, %one
    read %got, %buf, %one
    load.1 %c, %buf, 0
    movi %k, 16
    cmpltu %small, %c, %k
    br %small, lo, hi
  lo:
    movi %zero, 0
    call %v, vuln(%zero)
    ret %v
  hi:
    movi %zero, 0
    call %w, vuln(%zero)
    ret %w
)";

// A program that never crashes and never terminates on its own —
// preprocessing can only end by fuel or by the clock.
constexpr const char* kHangProgram = R"(
  func spin(x)
    movi %i, 0
  loop:
    addi %i, %i, 1
    jmp loop
  func main()
    movi %zero, 0
    call %v, spin(%zero)
    ret %v
)";

corpus::Pair HardSolverPair() {
  corpus::Pair pair;
  pair.idx = 99;
  pair.s_name = "synth-slow";
  pair.t_name = "synth-slow-t";
  pair.vuln_id = "SYNTH-HARD-SOLVER";
  pair.cwe = "CWE-119";
  pair.expected = corpus::ExpectedResult::kFailure;
  pair.s = vm::AssembleParts({kShared, kSMain});
  pair.t = vm::AssembleParts({kShared, kHardSolverTMain});
  pair.poc = Bytes{0xF7};
  pair.shared_functions = {"vuln"};
  return pair;
}

void ExpectSameOutcome(const VerificationReport& a,
                       const VerificationReport& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.reformed_poc, b.reformed_poc);
  EXPECT_EQ(a.failed_phase, b.failed_phase);
  EXPECT_EQ(a.exception_contained, b.exception_contained);
}

// ---------------------------------------------------------------------------
// Deadline / CancelToken units.

TEST(DeadlineUnit, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 1e18);
}

TEST(DeadlineUnit, ZeroBudgetExpiresImmediately) {
  const Deadline d = Deadline::AfterMillis(0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.Expired());
  EXPECT_LE(d.RemainingSeconds(), 0.0);
}

TEST(CancelTokenUnit, DefaultTokenNeverTrips) {
  CancelToken tok;
  EXPECT_FALSE(tok.CanExpire());
  for (int i = 0; i < 5000; ++i) EXPECT_FALSE(tok.ShouldStop());
  EXPECT_FALSE(tok.Check());
}

TEST(CancelTokenUnit, ExpiredDeadlineTripsWithinOneStride) {
  CancelToken immediate{Deadline::AfterMillis(0)};
  EXPECT_TRUE(immediate.Check());

  // ShouldStop only consults the clock every kStride polls — but no
  // more than one stride may pass before an expired token trips.
  CancelToken strided{Deadline::AfterMillis(0)};
  bool tripped = false;
  for (int i = 0; i < 1024 && !tripped; ++i) tripped = strided.ShouldStop();
  EXPECT_TRUE(tripped);
  // Sticky: every later poll agrees.
  EXPECT_TRUE(strided.ShouldStop());
  EXPECT_TRUE(strided.Check());
}

TEST(CancelTokenUnit, KillSwitchFlagTripIsSticky) {
  std::atomic<int> flag{0};
  CancelToken tok{Deadline::Never(), &flag};
  EXPECT_TRUE(tok.CanExpire());
  EXPECT_FALSE(tok.Check());
  flag.store(15);  // any nonzero value (a signal number) trips it
  EXPECT_TRUE(tok.Check());
  flag.store(0);  // lowering the flag does not un-trip the token
  EXPECT_TRUE(tok.Check());
}

// ---------------------------------------------------------------------------
// Fault-injection registry units.

class FaultRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override { support::fault::Disarm(); }
};

TEST_F(FaultRegistryTest, SkipCountsPollsBeforeTheOneShotFiring) {
  support::fault::Arm(FaultSite::kSolverStep, 2);
  EXPECT_TRUE(support::fault::armed());
  EXPECT_FALSE(support::fault::Poll(FaultSite::kSolverStep));
  EXPECT_FALSE(support::fault::Poll(FaultSite::kSolverStep));
  EXPECT_TRUE(support::fault::Poll(FaultSite::kSolverStep));
  // One-shot: the registry disarmed itself at the firing poll.
  EXPECT_FALSE(support::fault::Poll(FaultSite::kSolverStep));
  EXPECT_FALSE(support::fault::armed());
  EXPECT_EQ(support::fault::fired_count(), 1u);
}

TEST_F(FaultRegistryTest, OtherSitesNeverObserveAnArmedFault) {
  support::fault::Arm(FaultSite::kTaintStep);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(support::fault::Poll(FaultSite::kSolverStep));
    EXPECT_FALSE(support::fault::Poll(FaultSite::kCfgBuild));
  }
  EXPECT_TRUE(support::fault::Poll(FaultSite::kTaintStep));
}

TEST_F(FaultRegistryTest, MaybeThrowRaisesFaultErrorNamingTheSite) {
  support::fault::Arm(FaultSite::kCfgBuild);
  try {
    support::fault::MaybeThrow(FaultSite::kCfgBuild);
    FAIL() << "armed MaybeThrow did not throw";
  } catch (const support::FaultError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  support::FaultSiteName(FaultSite::kCfgBuild)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(support::fault::fired_count(), 1u);
}

TEST_F(FaultRegistryTest, SeededArmIsReproducibleAndCoversSites) {
  const FaultSite first = support::fault::ArmSeeded(0xDEADBEEF);
  support::fault::Disarm();
  EXPECT_EQ(support::fault::ArmSeeded(0xDEADBEEF), first);
  std::set<FaultSite> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    seen.insert(support::fault::ArmSeeded(seed));
  }
  EXPECT_GT(seen.size(), 1u) << "seeded arming is stuck on one site";
}

// ---------------------------------------------------------------------------
// Fault matrix: every site degrades to a contained, phase-attributed
// kFailure report.

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { support::fault::Disarm(); }
};

TEST_F(FaultInjectionTest, EverySiteDegradesToContainedFailure) {
  // Pair 8 exercises the full pipeline: preprocessing allocates (VM
  // heap), P1 taints, the CFG builds, and P2/P3 solves.
  struct Case {
    FaultSite site;
    const char* expected_phase;
  };
  const Case cases[] = {
      {FaultSite::kAllocation, "preprocessing"},  // S run's first alloc
      {FaultSite::kTaintStep, "P1"},
      {FaultSite::kCfgBuild, "cfg"},
      {FaultSite::kSolverStep, "P2/P3"},
  };
  const corpus::Pair pair = corpus::BuildPair(8);
  for (const Case& c : cases) {
    SCOPED_TRACE(support::FaultSiteName(c.site));
    support::fault::Arm(c.site);
    const VerificationReport report = VerifyPair(pair);
    EXPECT_EQ(report.verdict, Verdict::kFailure);
    EXPECT_EQ(report.type, ResultType::kFailure);
    EXPECT_TRUE(report.exception_contained);
    EXPECT_FALSE(report.deadline_expired);
    EXPECT_EQ(report.failed_phase, c.expected_phase);
    EXPECT_NE(report.detail.find("contained exception"), std::string::npos)
        << report.detail;
    EXPECT_EQ(support::fault::fired_count(), 1u);
    support::fault::Disarm();
  }
}

TEST_F(FaultInjectionTest, StateForkFaultIsContainedInP23) {
  // Pair 8's symex may never two-way fork; this synthetic T guarantees
  // one (both branch directions reach ep).
  const vm::Program s = vm::AssembleParts({kShared, kSMain});
  const vm::Program t = vm::AssembleParts({kShared, kForkingTMain});
  const Bytes poc{0xF7};

  Octopocs clean(s, t, {"vuln"}, poc);
  ASSERT_FALSE(clean.Verify().exception_contained);

  support::fault::Arm(FaultSite::kStateFork);
  Octopocs faulted(s, t, {"vuln"}, poc);
  const VerificationReport report = faulted.Verify();
  EXPECT_EQ(report.verdict, Verdict::kFailure);
  EXPECT_TRUE(report.exception_contained);
  EXPECT_EQ(report.failed_phase, "P2/P3");
  EXPECT_EQ(support::fault::fired_count(), 1u);
}

TEST_F(FaultInjectionTest, OneShotFaultHitsExactlyOnePairSerially) {
  const std::vector<corpus::Pair> pairs = {
      corpus::BuildPair(1), corpus::BuildPair(2), corpus::BuildPair(3)};
  const PipelineOptions opts;
  const auto clean = VerifyCorpus(pairs, opts, 1);

  support::fault::Arm(FaultSite::kTaintStep);
  const auto faulted = VerifyCorpus(pairs, opts, 1);
  ASSERT_EQ(faulted.size(), 3u);

  // Serial order: the first pair's P1 polls the site first and absorbs
  // the fault; the later pairs are untouched.
  EXPECT_TRUE(faulted[0].exception_contained);
  EXPECT_EQ(faulted[0].failed_phase, "P1");
  ExpectSameOutcome(faulted[1], clean[1]);
  ExpectSameOutcome(faulted[2], clean[2]);
  EXPECT_EQ(support::fault::fired_count(), 1u);
  EXPECT_FALSE(support::fault::armed());
}

TEST_F(FaultInjectionTest, OneShotFaultHitsExactlyOnePairInParallel) {
  const std::vector<corpus::Pair> pairs = {
      corpus::BuildPair(1), corpus::BuildPair(2), corpus::BuildPair(3)};
  const PipelineOptions opts;
  const auto clean = VerifyCorpus(pairs, opts, 1);

  support::fault::Arm(FaultSite::kTaintStep);
  const auto faulted = VerifyCorpus(pairs, opts, 3);
  ASSERT_EQ(faulted.size(), 3u);

  // Which pair absorbs the fault is a race, but the atomic countdown
  // guarantees exactly one does — the rest must be byte-identical.
  std::size_t contained = 0;
  for (std::size_t i = 0; i < faulted.size(); ++i) {
    if (faulted[i].exception_contained) {
      ++contained;
      EXPECT_EQ(faulted[i].verdict, Verdict::kFailure);
    } else {
      ExpectSameOutcome(faulted[i], clean[i]);
    }
  }
  EXPECT_EQ(contained, 1u);
  EXPECT_EQ(support::fault::fired_count(), 1u);
}

TEST_F(FaultInjectionTest, UnreachedSkipCountLeavesTheRunClean) {
  const corpus::Pair pair = corpus::BuildPair(1);
  const VerificationReport clean = VerifyPair(pair);

  support::fault::Arm(FaultSite::kTaintStep, 1'000'000'000'000ULL);
  const VerificationReport report = VerifyPair(pair);
  ExpectSameOutcome(report, clean);
  EXPECT_EQ(support::fault::fired_count(), 0u);
  EXPECT_TRUE(support::fault::armed());  // never consumed
}

// ---------------------------------------------------------------------------
// Pipeline deadlines: pathological workloads end by the clock, with the
// failing phase named, in bounded wall time.

TEST(PipelineDeadlineTest, TripsDuringPreprocessingOnAHangingProgram) {
  const vm::Program hang = vm::AssembleParts({kHangProgram});
  PipelineOptions opts;
  // Enough fuel that only the deadline can end the spin loop.
  opts.verify_exec.fuel = 2'000'000'000ULL;
  opts.deadline_ms = 25;

  const auto start = std::chrono::steady_clock::now();
  Octopocs pipeline(hang, hang, {"spin"}, Bytes{0x00}, opts);
  const VerificationReport report = pipeline.Verify();

  EXPECT_LT(ElapsedSeconds(start), 20.0) << "deadline did not bound the run";
  EXPECT_EQ(report.verdict, Verdict::kFailure);
  EXPECT_EQ(report.type, ResultType::kFailure);
  EXPECT_TRUE(report.deadline_expired);
  EXPECT_FALSE(report.exception_contained);
  EXPECT_EQ(report.failed_phase, "preprocessing");
}

TEST(PipelineDeadlineTest, PhaseDeadlineReapsThePathologicalSolve) {
  const corpus::Pair pair = HardSolverPair();
  PipelineOptions opts;
  // The step budget must not fire first — this test is about the clock.
  opts.symex.solver.max_steps = 4'000'000'000ULL;
  opts.deadline_ms = 150;

  const auto start = std::chrono::steady_clock::now();
  const VerificationReport report = VerifyPair(pair, opts);

  EXPECT_LT(ElapsedSeconds(start), 30.0) << "deadline did not bound the run";
  EXPECT_EQ(report.verdict, Verdict::kFailure);
  EXPECT_TRUE(report.deadline_expired);
  // Preprocessing and P1 on these tiny programs take microseconds; on
  // any sane machine the tiny CFG finishes too and the CSP search eats
  // the budget.
  EXPECT_TRUE(report.failed_phase == "P2/P3" || report.failed_phase == "cfg")
      << report.failed_phase;
  EXPECT_NE(report.detail.find("deadline"), std::string::npos)
      << report.detail;
}

TEST(PipelineDeadlineTest, RaisedKillSwitchReapsTheRunImmediately) {
  const vm::Program hang = vm::AssembleParts({kHangProgram});
  PipelineOptions opts;
  opts.verify_exec.fuel = 2'000'000'000ULL;
  std::atomic<int> kill{1};  // already raised — reap at first poll
  opts.cancel_flag = &kill;

  const auto start = std::chrono::steady_clock::now();
  Octopocs pipeline(hang, hang, {"spin"}, Bytes{0x00}, opts);
  const VerificationReport report = pipeline.Verify();

  EXPECT_LT(ElapsedSeconds(start), 20.0);
  EXPECT_EQ(report.verdict, Verdict::kFailure);
  EXPECT_TRUE(report.deadline_expired);
  EXPECT_EQ(report.failed_phase, "preprocessing");
}

TEST(PipelineDeadlineTest, PerPairDeadlineReapsOnlyTheStalledPair) {
  std::vector<corpus::Pair> pairs = {corpus::BuildPair(1), HardSolverPair(),
                                     corpus::BuildPair(2)};
  PipelineOptions opts;
  opts.symex.solver.max_steps = 4'000'000'000ULL;

  const auto clean0 = VerifyPair(pairs[0], opts);
  const auto clean2 = VerifyPair(pairs[2], opts);

  // The pipeline deadline is per pair: each pair's clock starts when
  // that pair does (what `corpus --pair-deadline-ms` sets).
  opts.deadline_ms = 3000;
  const auto start = std::chrono::steady_clock::now();
  const auto reports = VerifyCorpus(pairs, opts, 2);
  ASSERT_EQ(reports.size(), 3u);

  EXPECT_LT(ElapsedSeconds(start), 120.0);
  EXPECT_EQ(reports[1].verdict, Verdict::kFailure);
  EXPECT_TRUE(reports[1].deadline_expired);
  // The stalled pair must not take its neighbours down with it.
  ExpectSameOutcome(reports[0], clean0);
  ExpectSameOutcome(reports[2], clean2);
}

TEST(PipelineDeadlineTest, FuzzCampaignCutByTheDeadlineIsADeadlineFailure) {
  // Pair 14 dead-ends in P2/P3 within a few hundred ms, and its fuzz
  // campaign never crashes T, so with an execution budget no deadline
  // can fund only the clock ends the campaign. A cut campaign must not
  // pass for the dead-end verdict: the disk tier, whose key holds no
  // deadline, would store it as the pair's answer.
  PipelineOptions opts;
  opts.fuzz_fallback = true;
  opts.fuzz_execs = 2'000'000'000ULL;
  opts.deadline_ms = 2500;
  const VerificationReport report = VerifyPair(corpus::BuildPair(14), opts);
  EXPECT_TRUE(report.fuzz_attempted);
  EXPECT_EQ(report.verdict, Verdict::kFailure);
  EXPECT_TRUE(report.deadline_expired);
  EXPECT_EQ(report.failed_phase, "fuzz");
}

// ---------------------------------------------------------------------------
// Failure attribution: a dead end names its phase and stays a Failure.

TEST(DegradationTest, CfgFailureStaysAToolingFailure) {
  // Idx-15 models the angr CFG defect. The paper's row is Failure
  // (tooling), never a NotTriggerable verdict about T: the truth is
  // Triggered once the defect is fixed (Pipeline.AngrDefectFixUnlocksPair15).
  const VerificationReport report = VerifyPair(corpus::BuildPair(15));
  EXPECT_EQ(report.verdict, Verdict::kFailure);
  EXPECT_EQ(report.failed_phase, "cfg");
  EXPECT_FALSE(report.deadline_expired);
  EXPECT_FALSE(report.exception_contained);
}

TEST(DegradationTest, SolverBudgetFailureStaysAFailure) {
  // A solve that runs out of steps is a tooling outcome under the
  // configured budget, charged to P2/P3; it is not retried with more.
  PipelineOptions opts;
  opts.symex.solver.max_steps = 2'000;
  const VerificationReport report = VerifyPair(HardSolverPair(), opts);
  EXPECT_EQ(report.verdict, Verdict::kFailure);
  EXPECT_EQ(report.failed_phase, "P2/P3");
  EXPECT_FALSE(report.deadline_expired);
  EXPECT_FALSE(report.exception_contained);
}

TEST(DegradationTest, AdaptiveThetaCeilingIsAttributedToP23) {
  const vm::Program s = vm::AssembleParts({kShared, kSMain});
  // The 40-ramp T from adaptive_theta_test, rebuilt inline to keep this
  // file self-contained.
  const vm::Program t = vm::AssembleParts({kShared, R"(
    func main()
      movi %one, 1
      alloc %buf, %one
      movi %i, 0
      movi %goal, 40
    ramp:
      cmpltu %more, %i, %goal
      br %more, body, go
    body:
      read %got, %buf, %one
      load.1 %c, %buf, 0
      movi %aa, 0xaa
      cmpeq %ok, %c, %aa
      assert %ok
      addi %i, %i, 1
      jmp ramp
    go:
      movi %zero, 0
      call %v, vuln(%zero)
      ret %v
  )"});

  PipelineOptions opts;
  opts.symex.theta = 2;
  opts.adaptive_theta = true;
  opts.adaptive_theta_max = 16;  // ceiling below the 40-ramp
  Octopocs capped(s, t, {"vuln"}, Bytes{0xF7}, opts);
  const VerificationReport report = capped.Verify();
  EXPECT_EQ(report.verdict, Verdict::kFailure);
  EXPECT_EQ(report.failed_phase, "P2/P3");
  EXPECT_FALSE(report.deadline_expired);
  EXPECT_FALSE(report.exception_contained);
}

// ---------------------------------------------------------------------------
// Draining an in-process corpus run: the cancel flag (the CLI's signal
// flag) is the only drain switch. Pairs not yet started never start,
// the running pair is reaped at its next poll, and nothing cancelled
// reaches the report cache.

#ifndef _WIN32

std::unique_ptr<DiskArtifactStore> FreshCache(const std::string& name) {
  const std::string dir = testing::TempDir() + "octopocs_drain_" + name;
  std::filesystem::remove_all(dir);
  std::string error;
  auto cache = DiskArtifactStore::Open(dir, &error);
  EXPECT_NE(cache, nullptr) << error;
  return cache;
}

TEST(CorpusDrainTest, PreRaisedCancelFlagStartsNoPairAndStoresNothing) {
  const std::vector<corpus::Pair> pairs = {corpus::BuildPair(1),
                                           corpus::BuildPair(4)};
  std::atomic<int> cancel{15};
  PipelineOptions opts;
  opts.cancel_flag = &cancel;

  auto cache = FreshCache("before_start");
  ASSERT_NE(cache, nullptr);
  CorpusRunConfig config;
  config.jobs = 2;
  config.cache = cache.get();
  const auto reports = VerifyCorpus(pairs, opts, config);

  ASSERT_EQ(reports.size(), pairs.size());
  for (const VerificationReport& r : reports) {
    EXPECT_EQ(r.verdict, Verdict::kFailure);
    EXPECT_TRUE(r.deadline_expired);
    EXPECT_EQ(r.detail, "interrupted before start");
  }
  EXPECT_EQ(cache->size(), 0u);
  EXPECT_EQ(cache->stats().store_errors, 0u);
}

TEST(CorpusDrainTest, CancelMidRunReapsTheRunningPairWithoutStoringIt) {
  const std::vector<corpus::Pair> pairs = {corpus::BuildPair(1),
                                           HardSolverPair()};
  PipelineOptions opts;
  // The step budget must not end the hard pair: only the flag may.
  opts.symex.solver.max_steps = 4'000'000'000ULL;
  const VerificationReport clean = VerifyPair(pairs[0], opts);
  std::atomic<int> cancel{0};
  opts.cancel_flag = &cancel;

  auto cache = FreshCache("mid_run");
  ASSERT_NE(cache, nullptr);
  const auto start = std::chrono::steady_clock::now();
  CorpusRunConfig config;  // serial: pair 1 runs first, then the hard one
  config.cache = cache.get();
  std::thread raiser([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    cancel.store(2, std::memory_order_relaxed);
  });
  const auto reports = VerifyCorpus(pairs, opts, config);
  raiser.join();

  EXPECT_LT(ElapsedSeconds(start), 30.0) << "the flag did not reap the pair";
  ASSERT_EQ(reports.size(), pairs.size());
  ExpectSameOutcome(reports[0], clean);
  EXPECT_FALSE(reports[0].deadline_expired);
  EXPECT_EQ(reports[1].verdict, Verdict::kFailure);
  EXPECT_TRUE(reports[1].deadline_expired);

  // The finished pair is stored; the hard pair started, but its
  // cancelled report is never a statement about the pair, so a rerun
  // runs it again.
  EXPECT_EQ(cache->size(), 1u);
  const auto stored = GetReport(*cache, ReportKey(pairs[0], opts));
  ASSERT_TRUE(stored.has_value());
  ExpectSameOutcome(*stored, clean);
  EXPECT_FALSE(cache->Contains(ReportKey(pairs[1], opts)));
}

#endif  // !_WIN32

// ---------------------------------------------------------------------------
// VerifyCorpus edge cases.

TEST(CorpusEdgeTest, EmptyPairListReturnsEmptyWithoutWorkerMachinery) {
  const std::vector<corpus::Pair> none;
  EXPECT_TRUE(VerifyCorpus(none, {}, 8).empty());
}

TEST(CorpusEdgeTest, ZeroJobsRunsSeriallyLikeOne) {
  const std::vector<corpus::Pair> pairs = {corpus::BuildPair(1),
                                           corpus::BuildPair(2)};
  const auto zero = VerifyCorpus(pairs, {}, 0);
  const auto one = VerifyCorpus(pairs, {}, 1);
  ASSERT_EQ(zero.size(), 2u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameOutcome(zero[i], one[i]);
  }
}

}  // namespace
}  // namespace octopocs::core
