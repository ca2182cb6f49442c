// Adaptive loop cap (the paper's §III-D future-work item, implemented
// as PipelineOptions::adaptive_theta), and the trace shape Verify()
// emits around its stages: one span per stage, one `combine` span per
// θ attempt, and a `fuzz_fallback` span only when the rung runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/octopocs.h"
#include "corpus/extended.h"
#include "support/trace.h"
#include "vm/asm.h"

namespace octopocs::core {
namespace {

// Shared ℓ whose crash needs a long symbolic ramp in T: T only calls ep
// after consuming `depth` input bytes, each of which must equal 0xAA
// (every iteration is a symbolic loop state).
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

// T demands 40 magic bytes before reaching ep — beyond a small θ.
constexpr const char* kTMain = R"(
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
)";

TEST(AdaptiveTheta, SmallCapAloneCannotDecide) {
  const vm::Program s = vm::AssembleParts({kShared, kSMain});
  const vm::Program t = vm::AssembleParts({kShared, kTMain});
  const Bytes poc{0xF7};

  PipelineOptions opts;
  opts.symex.theta = 8;  // far below the 40 iterations T demands
  Octopocs fixed(s, t, {"vuln"}, poc, opts);
  const auto fixed_report = fixed.Verify();
  // Without adaptation this is the paper's dangerous wrong verdict.
  EXPECT_EQ(fixed_report.verdict, Verdict::kNotTriggerable);
}

TEST(AdaptiveTheta, RetriesUntilTheRampFits) {
  const vm::Program s = vm::AssembleParts({kShared, kSMain});
  const vm::Program t = vm::AssembleParts({kShared, kTMain});
  const Bytes poc{0xF7};

  PipelineOptions opts;
  opts.symex.theta = 8;
  opts.adaptive_theta = true;  // 8 → 16 → 32 → 64 fits the 40-ramp
  Octopocs adaptive(s, t, {"vuln"}, poc, opts);
  const auto report = adaptive.Verify();
  EXPECT_EQ(report.verdict, Verdict::kTriggered) << report.detail;
  // The generated PoC carries the 40-byte magic ramp + the primitive.
  ASSERT_EQ(report.reformed_poc.size(), 41u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(report.reformed_poc[i], 0xAA);
  EXPECT_EQ(report.reformed_poc[40], 0xF7);
}

TEST(AdaptiveTheta, CeilingDegradesToFailureNotWrongVerdict) {
  const vm::Program s = vm::AssembleParts({kShared, kSMain});
  const vm::Program t = vm::AssembleParts({kShared, kTMain});
  const Bytes poc{0xF7};

  PipelineOptions opts;
  opts.symex.theta = 2;
  opts.adaptive_theta = true;
  opts.adaptive_theta_max = 16;  // ceiling below the 40-ramp
  Octopocs capped(s, t, {"vuln"}, poc, opts);
  const auto report = capped.Verify();
  EXPECT_EQ(report.verdict, Verdict::kFailure);
  EXPECT_NE(report.detail.find("loop cap"), std::string::npos);
}

TEST(AdaptiveTheta, DoesNotDisturbGenuineTypeIII) {
  // A genuinely untriggerable pair must stay NotTriggerable with
  // adaptation on (no loop-dead states are involved in its proof).
  const corpus::Pair pair = corpus::BuildPair(10);
  PipelineOptions opts;
  opts.adaptive_theta = true;
  const auto report = VerifyPair(pair, opts);
  EXPECT_EQ(report.verdict, Verdict::kNotTriggerable);
}

// -- Trace shape -------------------------------------------------------------

using support::TraceEventKind;

/// The stage-level events of a traced run, one token each: "B<name>:<arg>"
/// for a span begin, "E<name>" for its end, "C<name>" for a counter.
/// Events named outside `names` (executor counters, the verify span) are
/// dropped.
std::vector<std::string> StageEvents(const support::Tracer& tracer,
                                     const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const support::TraceEvent& ev : tracer.Snapshot()) {
    const std::string name = ev.name;
    bool wanted = false;
    for (const std::string& n : names) wanted = wanted || n == name;
    if (!wanted) continue;
    switch (ev.kind) {
      case TraceEventKind::kBegin:
        out.push_back("B" + name + ":" + std::to_string(ev.value));
        break;
      case TraceEventKind::kEnd:
        out.push_back("E" + name);
        break;
      case TraceEventKind::kCounter:
        out.push_back("C" + name);
        break;
    }
  }
  return out;
}

TEST(VerifyTrace, AdaptiveThetaAttemptsAreSeparatedByRetryCounters) {
  const vm::Program s = vm::AssembleParts({kShared, kSMain});
  const vm::Program t = vm::AssembleParts({kShared, kTMain});
  support::Tracer tracer;
  PipelineOptions opts;
  opts.symex.theta = 8;
  opts.adaptive_theta = true;  // 8 → 16 → 32 → 64: four attempts
  opts.tracer = &tracer;
  Octopocs pipeline(s, t, {"vuln"}, Bytes{0xF7}, opts);
  ASSERT_EQ(pipeline.Verify().verdict, Verdict::kTriggered);

  const std::vector<std::string> expected = {
      "Bcombine:0", "Ecombine", "Cphase.retry",
      "Bcombine:1", "Ecombine", "Cphase.retry",
      "Bcombine:2", "Ecombine", "Cphase.retry",
      "Bcombine:3", "Ecombine"};
  EXPECT_EQ(StageEvents(tracer, {"combine", "phase.retry"}), expected);
}

TEST(VerifyTrace, FuzzRungHoldsItsCounterAndSkipsConcreteVerify) {
  const corpus::Pair pair = corpus::BuildExtendedPair(22);
  support::Tracer tracer;
  PipelineOptions opts;
  opts.fuzz_fallback = true;
  opts.tracer = &tracer;
  ASSERT_EQ(VerifyPair(pair, opts).verdict, Verdict::kTriggeredByFuzzing);

  const std::vector<std::string> expected = {
      "Bfuzz_fallback:0", "Cfuzz.execs", "Efuzz_fallback"};
  EXPECT_EQ(StageEvents(tracer, {"fuzz_fallback", "fuzz.execs",
                                 "concrete_verify"}),
            expected);
}

TEST(VerifyTrace, TriggeredPairOpensOneSpanPerStageAndNoFuzzSpan) {
  const corpus::Pair pair = corpus::BuildPair(1);
  support::Tracer tracer;
  PipelineOptions opts;
  opts.fuzz_fallback = true;  // on, but P2/P3 succeeds: the rung never runs
  opts.tracer = &tracer;
  ASSERT_EQ(VerifyPair(pair, opts).verdict, Verdict::kTriggered);

  const std::vector<std::string> expected = {
      "Bcrash_primitive:0", "Ecrash_primitive",
      "Bguiding_input:0",   "Eguiding_input",
      "Bcombine:0",         "Ecombine",
      "Bconcrete_verify:0", "Econcrete_verify"};
  EXPECT_EQ(StageEvents(tracer, {"crash_primitive", "guiding_input",
                                 "combine", "fuzz_fallback",
                                 "concrete_verify"}),
            expected);
}

}  // namespace
}  // namespace octopocs::core
