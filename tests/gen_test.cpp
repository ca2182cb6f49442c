// Property tests for the synthetic pair generator (src/gen): determinism,
// clone recovery under every mutation class, label correctness through
// the full pipeline (including the fuzz rung and a transitive S→T→U
// chain), and the satellite guarantee that guard-inserted pairs carry the
// NotTriggerable label.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "clone/detector.h"
#include "core/octopocs.h"
#include "gen/generator.h"
#include "vm/disasm.h"

namespace octopocs {
namespace {

constexpr std::uint64_t kSeed = 7;

// Generation itself runs self-checks (concrete traps, clone recovery) and
// throws on violation — so "builds without throwing" is already the bulk
// of the property. The assertions below pin the public contract.

TEST(GenTest, DeterministicAcrossRebuilds) {
  for (int ordinal : {0, 3, 7, 11, 14, 15, 20}) {
    gen::GeneratedPair a = gen::BuildGeneratedPair(kSeed, ordinal);
    gen::GeneratedPair b = gen::BuildGeneratedPair(kSeed, ordinal);
    EXPECT_EQ(vm::Disassemble(a.pair.s), vm::Disassemble(b.pair.s));
    EXPECT_EQ(vm::Disassemble(a.pair.t), vm::Disassemble(b.pair.t));
    EXPECT_EQ(a.pair.poc, b.pair.poc);
    EXPECT_EQ(gen::DescribeGeneratedPair(a), gen::DescribeGeneratedPair(b));
  }
}

TEST(GenTest, DifferentSeedsDiffer) {
  gen::GeneratedPair a = gen::BuildGeneratedPair(1, 0);
  gen::GeneratedPair b = gen::BuildGeneratedPair(2, 0);
  EXPECT_NE(gen::DescribeGeneratedPair(a), gen::DescribeGeneratedPair(b));
}

TEST(GenTest, EveryMutationClassRecoversSharedArea) {
  // Two full mutation cycles plus the chain slots. Clone recovery is
  // asserted inside the generator; here we double-check from the outside
  // and pin the label taxonomy.
  std::set<std::string> mutations_seen;
  for (int ordinal = 0; ordinal < 32; ++ordinal) {
    gen::GeneratedPair g = gen::BuildGeneratedPair(kSeed, ordinal);
    mutations_seen.insert(g.mutation);
    std::string t_callee = "gen_area";
    if (!g.pair.t_names.empty()) t_callee = g.pair.t_names.at("gen_area");
    bool recovered = false;
    for (const clone::CloneMatch& m : clone::DetectClones(g.pair.s, g.pair.t))
      if (m.name_in_s == "gen_area" && m.name_in_t == t_callee) recovered = true;
    EXPECT_TRUE(recovered) << gen::DescribeGeneratedPair(g);

    if (g.mutation == "guard-insert") {
      EXPECT_EQ(g.expected_verdict, core::Verdict::kNotTriggerable);
      EXPECT_FALSE(g.needs_fuzz);
    } else if (g.mutation == "symex-hostile") {
      EXPECT_EQ(g.expected_verdict, core::Verdict::kTriggeredByFuzzing);
      EXPECT_TRUE(g.needs_fuzz);
    } else {
      EXPECT_EQ(g.expected_verdict, core::Verdict::kTriggered);
    }
    if (ordinal % 16 == 14) {
      EXPECT_EQ(g.chain_hop, 1);
    }
    if (ordinal % 16 == 15) {
      EXPECT_EQ(g.chain_hop, 2);
    }
  }
  for (const char* m : {"rename-locals", "reorder-blocks", "outline-helper",
                        "inline-helper", "guard-insert", "symex-hostile",
                        "rename-clone"})
    EXPECT_TRUE(mutations_seen.count(m)) << m;
}

TEST(GenTest, ChainHopsShareTheMiddleProgram) {
  gen::GeneratedPair hop1 = gen::BuildGeneratedPair(kSeed, 14);
  gen::GeneratedPair hop2 = gen::BuildGeneratedPair(kSeed, 15);
  EXPECT_EQ(vm::Disassemble(hop1.pair.t), vm::Disassemble(hop2.pair.s));
  EXPECT_EQ(hop1.pair.poc, hop2.pair.poc);
  EXPECT_EQ(hop1.chain_hop, 1);
  EXPECT_EQ(hop2.chain_hop, 2);
}

TEST(GenTest, LoadGeneratedPairRoundTrips) {
  gen::GeneratedPair g = gen::BuildGeneratedPair(kSeed, 4);
  corpus::Pair loaded = gen::LoadGeneratedPair(kSeed, g.pair.idx);
  EXPECT_EQ(vm::Disassemble(g.pair.t), vm::Disassemble(loaded.t));
  EXPECT_EQ(g.pair.poc, loaded.poc);
  EXPECT_THROW(gen::LoadGeneratedPair(kSeed, 3), std::out_of_range);
}

core::PipelineOptions FuzzOptions() {
  core::PipelineOptions options;
  options.fuzz_fallback = true;
  options.fuzz_execs = 200000;
  return options;
}

TEST(GenTest, PipelineReproducesLabelsForOneFullMutationCycle) {
  // Ordinals 0..6 cover each mutation class exactly once; the verifier
  // (with the fuzz rung armed, as the soak harness runs it) must
  // reproduce the generator's label for every one.
  for (int ordinal = 0; ordinal < 7; ++ordinal) {
    gen::GeneratedPair g = gen::BuildGeneratedPair(kSeed, ordinal);
    core::VerificationReport report = core::VerifyPair(g.pair, FuzzOptions());
    EXPECT_EQ(report.verdict, g.expected_verdict)
        << gen::DescribeGeneratedPair(g) << " detail: " << report.detail;
  }
}

TEST(GenTest, ChainVerifiesTransitively) {
  gen::GeneratedPair hop1 = gen::BuildGeneratedPair(kSeed, 14);
  gen::GeneratedPair hop2 = gen::BuildGeneratedPair(kSeed, 15);
  core::VerificationReport r1 = core::VerifyPair(hop1.pair, FuzzOptions());
  ASSERT_EQ(r1.verdict, core::Verdict::kTriggered) << r1.detail;
  ASSERT_FALSE(r1.reformed_poc.empty());
  // The reformed poc' from S→T is the evidence fed into the T→U hop.
  corpus::Pair second = hop2.pair;
  second.poc = r1.reformed_poc;
  core::VerificationReport r2 = core::VerifyPair(second, FuzzOptions());
  EXPECT_EQ(r2.verdict, core::Verdict::kTriggered) << r2.detail;
}

TEST(GenTest, HogPairIsGuardedAndHostile) {
  gen::GeneratedPair hog = gen::BuildHogPair(kSeed);
  EXPECT_EQ(hog.pair.idx, gen::kHogIdx);
  EXPECT_EQ(hog.expected_verdict, core::Verdict::kNotTriggerable);
  corpus::Pair loaded = gen::LoadGeneratedPair(kSeed, gen::kHogIdx);
  EXPECT_EQ(vm::Disassemble(hog.pair.t), vm::Disassemble(loaded.t));
}

}  // namespace
}  // namespace octopocs
