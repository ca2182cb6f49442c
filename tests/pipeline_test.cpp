// End-to-end pipeline verification: Table II as a test suite.
//
// Every corpus pair must reproduce the paper's verdict:
//   Idx 1-6  → Type-I  Triggered (guiding input preserved)
//   Idx 7-9  → Type-II Triggered (PoC genuinely reformed)
//   Idx 10-14→ Type-III NotTriggerable
//   Idx 15   → Failure (simulated angr CFG defect)
// and whenever a poc' is produced it must actually crash T with the
// pair's documented trap class.
#include <gtest/gtest.h>

#include "core/octopocs.h"

namespace octopocs::core {
namespace {

PipelineOptions TestOptions() {
  PipelineOptions opts;
  // CWE-835 hangs should exhaust fuel quickly in unit tests.
  opts.verify_exec.fuel = 300'000;
  opts.symex.max_state_instructions = 400'000;
  return opts;
}

class PipelineTable2 : public ::testing::TestWithParam<int> {};

TEST_P(PipelineTable2, ReproducesPaperVerdict) {
  const corpus::Pair pair = corpus::BuildPair(GetParam());
  const VerificationReport report = VerifyPair(pair, TestOptions());

  SCOPED_TRACE("pair " + std::to_string(pair.idx) + " " + pair.s_name +
               " -> " + pair.t_name + " | detail: " + report.detail +
               " | symex: " +
               std::string(symex::SymexStatusName(report.symex_status)));

  switch (pair.expected) {
    case corpus::ExpectedResult::kTypeI:
      EXPECT_EQ(report.verdict, Verdict::kTriggered);
      EXPECT_EQ(report.type, ResultType::kTypeI);
      EXPECT_TRUE(report.poc_generated);
      EXPECT_EQ(report.observed_trap, pair.expected_trap);
      break;
    case corpus::ExpectedResult::kTypeII:
      EXPECT_EQ(report.verdict, Verdict::kTriggered);
      EXPECT_EQ(report.type, ResultType::kTypeII);
      EXPECT_TRUE(report.poc_generated);
      EXPECT_EQ(report.observed_trap, pair.expected_trap);
      break;
    case corpus::ExpectedResult::kTypeIII:
      EXPECT_EQ(report.verdict, Verdict::kNotTriggerable);
      EXPECT_EQ(report.type, ResultType::kTypeIII);
      EXPECT_FALSE(report.poc_generated);
      break;
    case corpus::ExpectedResult::kFailure:
      EXPECT_EQ(report.verdict, Verdict::kFailure);
      EXPECT_FALSE(report.poc_generated);
      break;
  }
}

TEST_P(PipelineTable2, ReformedPocCrashesTConcretely) {
  const corpus::Pair pair = corpus::BuildPair(GetParam());
  if (pair.expected != corpus::ExpectedResult::kTypeI &&
      pair.expected != corpus::ExpectedResult::kTypeII) {
    GTEST_SKIP() << "no poc' expected for this pair";
  }
  const VerificationReport report = VerifyPair(pair, TestOptions());
  ASSERT_TRUE(report.poc_generated) << report.detail;
  vm::ExecOptions opts;
  opts.fuel = 300'000;
  const auto run = vm::RunProgram(pair.t, report.reformed_poc, opts);
  EXPECT_EQ(run.trap, pair.expected_trap)
      << "trap " << vm::TrapName(run.trap) << " msg " << run.trap_message;
}

INSTANTIATE_TEST_SUITE_P(AllPairs, PipelineTable2, ::testing::Range(1, 16));

TEST(Pipeline, EpDiscoveryFindsBottomMostSharedFunction) {
  const corpus::Pair pair = corpus::BuildPair(1);
  Octopocs pipeline(pair.s, pair.t, pair.shared_functions, pair.poc,
                    TestOptions());
  const auto ep = pipeline.DiscoverEp();
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(pair.s.Fn(*ep).name, "mjpg_decode");  // not mjpg_scan
}

TEST(Pipeline, NonCrashingPocFailsPreprocessing) {
  const corpus::Pair pair = corpus::BuildPair(1);
  Octopocs pipeline(pair.s, pair.t, pair.shared_functions,
                    Bytes{'M', 'J', 'P', 'G'}, TestOptions());
  EXPECT_FALSE(pipeline.DiscoverEp().has_value());
  const auto report = pipeline.Verify();
  EXPECT_EQ(report.verdict, Verdict::kFailure);
}

TEST(Pipeline, MotivatingExampleWrapsJ2kIntoPdf) {
  // The paper's Figure 2: a bare-J2K PoC is reformed into a PDF that
  // triggers the same null dereference in the MuPDF-analog.
  const corpus::Pair pair = corpus::BuildPair(8);
  const VerificationReport report = VerifyPair(pair, TestOptions());
  ASSERT_EQ(report.verdict, Verdict::kTriggered) << report.detail;
  // poc' now starts with the container magic "%PDF", not "MJ2K".
  ASSERT_GE(report.reformed_poc.size(), 4u);
  EXPECT_EQ(report.reformed_poc[0], '%');
  EXPECT_EQ(report.reformed_poc[1], 'P');
  // ...and the crash primitive (the J2K stream) is embedded deeper.
  bool found_mj2k = false;
  for (std::size_t i = 4; i + 4 <= report.reformed_poc.size(); ++i) {
    if (report.reformed_poc[i] == 'M' && report.reformed_poc[i + 1] == 'J' &&
        report.reformed_poc[i + 2] == '2' &&
        report.reformed_poc[i + 3] == 'K') {
      found_mj2k = true;
    }
  }
  EXPECT_TRUE(found_mj2k);
}

TEST(Pipeline, ReverseDirectionStripsContainer) {
  // Pair 7 goes the other way: the PDF-wrapped PoC shrinks to a bare
  // J2K stream for the opj_dump-analog.
  const corpus::Pair pair = corpus::BuildPair(7);
  const VerificationReport report = VerifyPair(pair, TestOptions());
  ASSERT_EQ(report.verdict, Verdict::kTriggered) << report.detail;
  ASSERT_GE(report.reformed_poc.size(), 4u);
  EXPECT_EQ(report.reformed_poc[0], 'M');
  EXPECT_EQ(report.reformed_poc[3], 'K');
  EXPECT_LT(report.reformed_poc.size(), pair.poc.size());
}

TEST(Pipeline, ArtificialGif2pngGetsValidVersion) {
  // Pair 9: the disclosed PoC carries version "87x"; the reformed PoC
  // must carry a version the strict build accepts.
  const corpus::Pair pair = corpus::BuildPair(9);
  ASSERT_EQ(pair.poc[5], 'x');
  const VerificationReport report = VerifyPair(pair, TestOptions());
  ASSERT_EQ(report.verdict, Verdict::kTriggered) << report.detail;
  ASSERT_GE(report.reformed_poc.size(), 6u);
  EXPECT_EQ(report.reformed_poc[3], '8');
  EXPECT_TRUE(report.reformed_poc[4] == '7' || report.reformed_poc[4] == '9');
  EXPECT_EQ(report.reformed_poc[5], 'a');
}

TEST(Pipeline, AngrDefectFixUnlocksPair15) {
  // Ablation B's claim: with the simulated angr bug "fixed", Idx-15
  // verifies like any Type-I/II pair.
  const corpus::Pair pair = corpus::BuildPair(15);
  PipelineOptions opts = TestOptions();
  opts.cfg.resolve_obfuscated_icalls = true;
  const VerificationReport report = VerifyPair(pair, opts);
  EXPECT_EQ(report.verdict, Verdict::kTriggered) << report.detail;
  EXPECT_EQ(report.observed_trap, pair.expected_trap);
}

TEST(Pipeline, ContextFreeTaintBreaksMultiEncounterPairs) {
  // Table III: without context information the multi-encounter pairs
  // (3, 4, 9) no longer produce a working poc'.
  for (const int idx : {3, 4, 9}) {
    const corpus::Pair pair = corpus::BuildPair(idx);
    PipelineOptions opts = TestOptions();
    opts.taint.context_aware = false;
    const VerificationReport report = VerifyPair(pair, opts);
    EXPECT_NE(report.verdict, Verdict::kTriggered)
        << "pair " << idx << " unexpectedly verified without context";
  }
  // ...while the single-encounter pairs still work.
  for (const int idx : {1, 5, 7}) {
    const corpus::Pair pair = corpus::BuildPair(idx);
    PipelineOptions opts = TestOptions();
    opts.taint.context_aware = false;
    const VerificationReport report = VerifyPair(pair, opts);
    EXPECT_EQ(report.verdict, Verdict::kTriggered)
        << "pair " << idx << ": " << report.detail;
  }
}

TEST(Pipeline, TimingsAndStatsPopulated) {
  const VerificationReport report =
      VerifyPair(corpus::BuildPair(1), TestOptions());
  EXPECT_GT(report.timings.total_seconds, 0.0);
  EXPECT_GT(report.bunch_count, 0u);
  EXPECT_GT(report.crash_primitive_bytes, 0u);
  EXPECT_GT(report.symex_stats.instructions, 0u);
  EXPECT_EQ(report.ep_name, "mjpg_decode");
}

// Pins the exact P2/P3 decision tree on the corpus's solver-heavy pair.
// Verdict-level tests cannot see a change in fork push/pop order, branch
// preference or cache-tier routing as long as the search still ends at
// the same answer; these counters can, so any such change has to show up
// here and be justified.
TEST(Pipeline, Pair14SearchCountersArePinned) {
  const VerificationReport report =
      VerifyPair(corpus::BuildPair(14), PipelineOptions{});
  ASSERT_EQ(report.verdict, Verdict::kNotTriggerable) << report.detail;
  const symex::SymexStats& st = report.symex_stats;
  EXPECT_EQ(st.instructions, 2795u);
  EXPECT_EQ(st.states_created, 122u);
  EXPECT_EQ(st.solver_steps, 246165u);
  EXPECT_EQ(st.solver_cache_hits, 308u);
  EXPECT_EQ(st.solver_cache_misses, 418u);
  // Model reuse is the only hit left. The 57 queries the retired exact
  // memo answered repeat a satisfiable query whose model is already in
  // the state's pool, so reuse answers them (251 + 57) and nothing else
  // in the tree moves.
  EXPECT_EQ(st.solver_model_reuse_hits, 308u);
  // Concat equalities derive their byte pins once per node (ConcatPins),
  // not once per fresh search, so the interner is asked for few nodes it
  // already holds; the pins are among the 2,414 nodes either way.
  EXPECT_EQ(st.expr_intern_hits, 2461u);
  EXPECT_EQ(st.expr_intern_nodes, 2414u);
}

}  // namespace
}  // namespace octopocs::core
