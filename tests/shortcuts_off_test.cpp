// Shortcut-off differential: the one oracle every answer-preserving
// shortcut is checked against.
//
// The default pipeline takes shortcuts that must never change a report:
// the solver's branch wipeout and model reuse, SolveContext seeding (derived pins included), the propagate
// solver core, the exact-cycle fast-forward in the interpreter and in
// the symbolic stepper, and artifact-store hits. Each slice below is verified three times — under
// the defaults with one shared ArtifactStore, cold and then warm, and
// under oracle::ShortcutsOff (every solver query searched unseeded by
// the backtrack core with no solver shortcut, no cycle skip in either
// stepper, no store) — and every report must
// serialize byte for byte the same with its wall-clock timings zeroed.
//
// The three slices (Table II's 15 pairs, the 7 extended pairs and 64
// generated pairs) compare 86 pairs in all; each TEST is its own ctest
// entry so `ctest -j` spreads them. The generated slice comes from seed
// 4001 unless a nonempty OCTO_SHORTCUTS_SEED names another, so a soak
// job can point the oracle at its own corpus:
//
//   OCTO_SHORTCUTS_SEED=7 shortcuts_off_test --gtest_filter='*Generated*'
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/artifact_store.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"
#include "core/report_io.h"
#include "corpus/extended.h"
#include "corpus/pairs.h"
#include "gen/generator.h"
#include "oracle/oracle.h"

namespace octopocs {
namespace {

/// The wire form of a report with its timings zeroed: everything a
/// shortcut could corrupt, nothing the clock decides.
std::string Canonical(core::VerificationReport report) {
  report.timings = {};
  return core::SerializeReport(report);
}

/// Verifies `pairs` under `base` with the shortcuts on (cold, then warm
/// over the same store) and off, expects the three report sets to be
/// byte-identical pair by pair, and returns the shortcut-off reports.
std::vector<core::VerificationReport> ExpectShortcutsInvisible(
    const std::vector<corpus::Pair>& pairs,
    const core::PipelineOptions& base) {
  core::ArtifactStore store;
  core::PipelineOptions fast = base;
  fast.artifacts = &store;
  const auto cold = core::VerifyCorpus(pairs, fast, 1);
  const std::uint64_t cold_hits = store.stats().hits;
  const auto warm = core::VerifyCorpus(pairs, fast, 1);
  // A warm pass that never hit the store would compare nothing.
  EXPECT_GT(store.stats().hits, cold_hits);

  core::PipelineOptions slow = base;
  oracle::ShortcutsOff(&slow);
  const auto reference = core::VerifyCorpus(pairs, slow, 1);

  EXPECT_EQ(cold.size(), pairs.size());
  EXPECT_EQ(warm.size(), pairs.size());
  EXPECT_EQ(reference.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size() && i < reference.size(); ++i) {
    const std::string want = Canonical(reference[i]);
    EXPECT_EQ(Canonical(cold[i]), want) << "pair " << pairs[i].idx << " cold";
    EXPECT_EQ(Canonical(warm[i]), want) << "pair " << pairs[i].idx << " warm";
  }
  return reference;
}

TEST(ShortcutsOffDifferential, TableTwoCorpus) {
  const std::vector<corpus::Pair> pairs = corpus::BuildCorpus();
  ASSERT_EQ(pairs.size(), 15u);
  const auto reports = ExpectShortcutsInvisible(pairs, {});
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(std::string(core::ResultTypeName(reports[i].type)),
              std::string(corpus::ExpectedResultName(pairs[i].expected)))
        << "pair " << pairs[i].idx;
  }
}

TEST(ShortcutsOffDifferential, ExtendedCorpus) {
  const std::vector<corpus::Pair> pairs = corpus::BuildExtendedCorpus();
  ASSERT_EQ(pairs.size(), 7u);
  ExpectShortcutsInvisible(pairs, {});
}

TEST(ShortcutsOffDifferential, GeneratedSlice) {
  // Soak rung options: the generator's labels are certified with the
  // fuzz fallback on, seed 1, a 20000-exec budget.
  core::PipelineOptions rung;
  rung.fuzz_fallback = true;
  rung.fuzz_seed = 1;
  rung.fuzz_execs = 20000;

  std::uint64_t seed = 4001;
  const char* env = std::getenv("OCTO_SHORTCUTS_SEED");
  if (env != nullptr && *env != '\0') {
    const char* end = env + std::strlen(env);
    const auto [ptr, ec] = std::from_chars(env, end, seed);
    ASSERT_TRUE(ec == std::errc() && ptr == end && ptr != env)
        << "OCTO_SHORTCUTS_SEED is not an unsigned integer: '" << env << "'";
  }
  SCOPED_TRACE("generator seed " + std::to_string(seed));

  std::vector<corpus::Pair> pairs;
  bool has_fuel_loop = false;
  for (gen::GeneratedPair& g : gen::GenerateCorpus(seed, 64)) {
    has_fuel_loop |= g.vuln_class == "fuel-loop";
    pairs.push_back(std::move(g.pair));
  }
  ASSERT_EQ(pairs.size(), 64u);
  // The slice must exercise the shortcuts that matter most: a hung T
  // (cycle skip) and the fuzz rung's re-verification.
  EXPECT_TRUE(has_fuel_loop);
  const auto reports = ExpectShortcutsInvisible(pairs, rung);
  bool has_fuzzed = false;
  for (const core::VerificationReport& r : reports) {
    has_fuzzed |= r.verdict == core::Verdict::kTriggeredByFuzzing;
  }
  EXPECT_TRUE(has_fuzzed);
}

}  // namespace
}  // namespace octopocs
