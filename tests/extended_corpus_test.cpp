// Extended corpus (pairs 16-21): end-to-end verification of the
// beyond-the-paper scenarios — double wrapping, renamed clones, three
// bunches, a stateful use-after-free, a patched divide-by-zero, and
// the mmap input channel.
#include <gtest/gtest.h>

#include "clone/detector.h"
#include "core/octopocs.h"
#include "corpus/extended.h"

namespace octopocs::corpus {
namespace {

class ExtendedGroundTruth : public ::testing::TestWithParam<int> {};

TEST_P(ExtendedGroundTruth, SCrashesWithDocumentedTrap) {
  const Pair pair = BuildExtendedPair(GetParam());
  ASSERT_FALSE(vm::Validate(pair.s).has_value());
  ASSERT_FALSE(vm::Validate(pair.t).has_value());
  const auto run = vm::RunProgram(pair.s, pair.poc);
  EXPECT_EQ(run.trap, pair.expected_trap)
      << vm::TrapName(run.trap) << ": " << run.trap_message;
}

TEST_P(ExtendedGroundTruth, PipelineMatchesExpectedVerdict) {
  const Pair pair = BuildExtendedPair(GetParam());
  const auto report = core::VerifyPair(pair);
  SCOPED_TRACE("pair " + std::to_string(pair.idx) + ": " + report.detail);
  switch (pair.expected) {
    case ExpectedResult::kTypeI:
      EXPECT_EQ(report.verdict, core::Verdict::kTriggered);
      EXPECT_EQ(report.type, core::ResultType::kTypeI);
      break;
    case ExpectedResult::kTypeII:
      EXPECT_EQ(report.verdict, core::Verdict::kTriggered);
      EXPECT_EQ(report.type, core::ResultType::kTypeII);
      break;
    case ExpectedResult::kTypeIII:
      EXPECT_EQ(report.verdict, core::Verdict::kNotTriggerable);
      break;
    case ExpectedResult::kFailure:
      EXPECT_EQ(report.verdict, core::Verdict::kFailure);
      break;
  }
  if (report.poc_generated) {
    EXPECT_EQ(vm::RunProgram(pair.t, report.reformed_poc).trap,
              pair.expected_trap);
  }
}

INSTANTIATE_TEST_SUITE_P(Pairs16To20, ExtendedGroundTruth,
                         ::testing::Range(16, 23));

TEST(Extended, DoubleWrapBuildsBothContainers) {
  // Pair 16: poc' must carry the MBOX magic, an embedded %PDF, and the
  // relocated MJ2K stream — two synthesized wrappers.
  const Pair pair = BuildExtendedPair(16);
  const auto report = core::VerifyPair(pair);
  ASSERT_TRUE(report.poc_generated) << report.detail;
  const Bytes& poc = report.reformed_poc;
  const auto find = [&](std::string_view needle) {
    for (std::size_t i = 0; i + needle.size() <= poc.size(); ++i) {
      bool hit = true;
      for (std::size_t j = 0; j < needle.size(); ++j) {
        if (poc[i + j] != static_cast<std::uint8_t>(needle[j])) hit = false;
      }
      if (hit) return true;
    }
    return false;
  };
  EXPECT_TRUE(find("MBOX"));
  EXPECT_TRUE(find("%PDF"));
  EXPECT_TRUE(find("MJ2K"));
}

TEST(Extended, RenamedCloneFoundByDetectorAndVerified) {
  // Pair 17 end-to-end *through the clone detector*: fingerprints match
  // the renamed body, the name map feeds the pipeline, and the verdict
  // lands despite S and T disagreeing on the function name.
  const Pair pair = BuildExtendedPair(17);
  const auto matches = clone::DetectClones(pair.s, pair.t);
  std::map<std::string, std::string> name_map;
  for (const auto& m : matches) name_map[m.name_in_s] = m.name_in_t;
  ASSERT_EQ(name_map.count("gif_read_image"), 1u);
  EXPECT_EQ(name_map["gif_read_image"], "read_raster_data");

  core::Octopocs pipeline(pair.s, pair.t, {"gif_read_image"}, pair.poc,
                          {}, name_map);
  const auto report = pipeline.Verify();
  EXPECT_EQ(report.verdict, core::Verdict::kTriggered) << report.detail;
}

TEST(Extended, ThreeBunchesExtractedAndPlaced) {
  const Pair pair = BuildExtendedPair(18);
  core::Octopocs pipeline(pair.s, pair.t, pair.shared_functions, pair.poc);
  const auto ep = pipeline.DiscoverEp();
  ASSERT_TRUE(ep.has_value());
  const auto p1 = pipeline.ExtractPrimitives(*ep);
  EXPECT_EQ(p1.ep_encounters, 3u);
  EXPECT_EQ(p1.bunches.size(), 3u);
}

TEST(Extended, UafRequiresTheExactRecordSequence) {
  // Reordering the reset and final data records defuses the PoC: the
  // use-after-free is stateful, not a field-value property.
  const Pair pair = BuildExtendedPair(19);
  Bytes reordered = pair.poc;
  std::swap(reordered[5], reordered[7]);  // reset before first data rec
  std::swap(reordered[6], reordered[8]);
  const auto run = vm::RunProgram(pair.s, reordered);
  EXPECT_NE(run.trap, vm::TrapKind::kNone);  // still crashes (earlier!)
  // The pipeline still reforms the original sequence for T.
  const auto report = core::VerifyPair(pair);
  EXPECT_EQ(report.verdict, core::Verdict::kTriggered) << report.detail;
  EXPECT_EQ(report.bunch_count, 3u);
}

TEST(Extended, PatchedDivisorProvenUnsat) {
  const Pair pair = BuildExtendedPair(20);
  const auto report = core::VerifyPair(pair);
  EXPECT_EQ(report.verdict, core::Verdict::kNotTriggerable);
  EXPECT_EQ(report.symex_status, symex::SymexStatus::kUnsat);
  // The unpatched S-side build is of course still vulnerable.
  EXPECT_EQ(vm::RunProgram(pair.s, pair.poc).trap,
            vm::TrapKind::kDivByZero);
}

TEST(Extended, MmapChannelReformsLikeReadChannel) {
  // Pair 21: every PoC byte reaches ℓ through the file mapping; crash
  // primitives and guiding inputs must work exactly as for read(2).
  const Pair pair = BuildExtendedPair(21);
  const auto report = core::VerifyPair(pair);
  ASSERT_EQ(report.verdict, core::Verdict::kTriggered) << report.detail;
  EXPECT_EQ(report.type, core::ResultType::kTypeI);
  EXPECT_EQ(vm::RunProgram(pair.t, report.reformed_poc).trap,
            vm::TrapKind::kOutOfBounds);
}

TEST(Extended, RegistryShape) {
  const auto pairs = BuildExtendedCorpus();
  ASSERT_EQ(pairs.size(), 7u);
  EXPECT_EQ(pairs.front().idx, 16);
  EXPECT_EQ(pairs.back().idx, 22);
  EXPECT_THROW(BuildExtendedPair(15), std::out_of_range);
  EXPECT_THROW(BuildExtendedPair(23), std::out_of_range);
}

TEST(Extended, SymexDeadPairStagesNotTriggerable) {
  // Pair 22 rung-off: the warm-up loop kills every symbolic state, so
  // the stock pipeline reports the (unsound) loop-cap NotTriggerable —
  // and no fuzz fields leak into the report.
  const Pair pair = BuildExtendedPair(22);
  const auto report = core::VerifyPair(pair);
  EXPECT_EQ(report.verdict, core::Verdict::kNotTriggerable);
  EXPECT_EQ(report.symex_status, symex::SymexStatus::kProgramDead);
  EXPECT_FALSE(report.fuzz_attempted);
}

TEST(Extended, FuzzFallbackUpgradesSymexDeadPair) {
  // Pair 22 rung-on: the directed campaign mutates the (untainted)
  // count header, keeps the pinned entry bytes, and crashes T inside
  // ep — a TriggeredByFuzzing verdict that is byte-reproducible for a
  // fixed seed and execution budget.
  const Pair pair = BuildExtendedPair(22);
  core::PipelineOptions opts;
  opts.fuzz_fallback = true;
  opts.fuzz_seed = 7;
  opts.fuzz_execs = 50'000;
  const auto report = core::VerifyPair(pair, opts);
  ASSERT_EQ(report.verdict, core::Verdict::kTriggeredByFuzzing)
      << report.detail;
  EXPECT_EQ(report.type, core::ResultType::kFuzzed);
  EXPECT_TRUE(report.fuzz_attempted);
  EXPECT_EQ(report.fuzz_seed, 7u);
  EXPECT_GT(report.fuzz_execs_to_crash, 0u);
  // The winning input still carries the pinned crash primitives and
  // still crashes T with the documented trap.
  EXPECT_EQ(vm::RunProgram(pair.t, report.reformed_poc).trap,
            pair.expected_trap);

  const auto again = core::VerifyPair(pair, opts);
  EXPECT_EQ(again.verdict, report.verdict);
  EXPECT_EQ(again.fuzz_execs, report.fuzz_execs);
  EXPECT_EQ(again.fuzz_execs_to_crash, report.fuzz_execs_to_crash);
  EXPECT_EQ(again.reformed_poc, report.reformed_poc);
}

TEST(Extended, FuzzFallbackNeverFlipsDecidedPairs) {
  // The rung must be a no-op for pairs the pipeline already decides:
  // Verify returns on a proof verdict before it reaches the rung, and a
  // pair whose search generates a poc' skips the rung and goes on to P4.
  core::PipelineOptions opts;
  opts.fuzz_fallback = true;
  for (const int idx : {20, 21}) {
    const Pair pair = BuildExtendedPair(idx);
    const auto off = core::VerifyPair(pair);
    const auto on = core::VerifyPair(pair, opts);
    EXPECT_EQ(on.verdict, off.verdict) << "pair " << idx;
    EXPECT_EQ(on.type, off.type) << "pair " << idx;
    EXPECT_FALSE(on.fuzz_attempted) << "pair " << idx;
  }
}

}  // namespace
}  // namespace octopocs::corpus
