// Workload inputs and the labels every verdict is checked against.
#include <string>
#include <vector>

#include "bench.h"
#include "core/report_io.h"
#include "corpus/extended.h"
#include "gen/generator.h"

namespace perfbench {

namespace {

// Generated corpora are stratified by cost class so that every seed
// yields the same mix: a fuel-loop pair costs about 500x a plain one,
// and the share GenerateCorpus draws at random varies by +-15% between
// seeds at this size, which would swamp every throughput figure. The
// counts follow the generator's own long-run frequencies (vuln class
// uniform over six, symex-hostile one mutation in seven).
constexpr int kFuelLoopPairs = 30;
constexpr int kHostilePairs = 36;
constexpr int kPlainPairs = 190;
// Ordinals drawn in one GenerateCorpus call; more are built one by one
// only when a seed leaves a quota short.
constexpr int kDrawOrdinals = 320;

std::string CostClass(const octopocs::gen::GeneratedPair& g) {
  if (g.vuln_class == "fuel-loop") return "fuel-loop";
  if (g.mutation == "symex-hostile") return "symex-hostile";
  return "plain";
}

}  // namespace

std::vector<Item> BuildPaperItems() {
  std::vector<Item> items;
  for (int idx = 1; idx <= 22; ++idx) {
    Item item;
    item.pair = idx <= 15 ? corpus::BuildPair(idx)
                          : corpus::BuildExtendedPair(idx);
    item.cls = "pair " + std::to_string(idx);
    item.cost = "paper";
    item.paper = true;
    item.expected_type = item.pair.expected;
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<Item> BuildGeneratedItems(std::uint64_t seed) {
  std::map<std::string, int> quota = {{"fuel-loop", kFuelLoopPairs},
                                      {"symex-hostile", kHostilePairs},
                                      {"plain", kPlainPairs}};
  int missing = kFuelLoopPairs + kHostilePairs + kPlainPairs;
  std::vector<Item> items;
  const auto take = [&](octopocs::gen::GeneratedPair g) {
    const std::string cost = CostClass(g);
    if (quota[cost] == 0) return;
    --quota[cost];
    --missing;
    Item item;
    item.cls = g.vuln_class + " x " + g.mutation;
    item.cost = cost;
    item.expected_verdict = g.expected_verdict;
    item.pair = std::move(g.pair);
    items.push_back(std::move(item));
  };
  for (auto& g : octopocs::gen::GenerateCorpus(seed, kDrawOrdinals)) {
    take(std::move(g));
  }
  for (int ordinal = kDrawOrdinals; missing > 0; ++ordinal) {
    take(octopocs::gen::BuildGeneratedPair(seed, ordinal));
  }
  return items;
}

core::PipelineOptions GeneratedOptions() {
  core::PipelineOptions options;
  options.fuzz_fallback = true;
  options.fuzz_seed = 1;
  options.fuzz_execs = 20000;
  return options;
}

std::vector<std::string> GeneratedWorkerArgs(std::uint64_t seed) {
  const core::PipelineOptions options = GeneratedOptions();
  return {"--gen-seed",   std::to_string(seed),
          "--fuzz-fallback",
          "--fuzz-seed",  std::to_string(options.fuzz_seed),
          "--fuzz-execs", std::to_string(options.fuzz_execs)};
}

bool MatchesLabel(const Item& item, const core::VerificationReport& report) {
  if (!item.paper) return report.verdict == item.expected_verdict;
  // Table II rows name a result type; the extended NotTriggerable rows
  // accept any NotTriggerable verdict, as bench_extended does.
  return core::ResultTypeName(report.type) ==
             corpus::ExpectedResultName(item.expected_type) ||
         (item.expected_type == corpus::ExpectedResult::kTypeIII &&
          report.verdict == core::Verdict::kNotTriggerable);
}

std::string VerdictBytes(core::VerificationReport report) {
  report.timings = core::PhaseTimings{};
  return core::SerializeReport(report);
}

void Fail(Context& ctx, const std::string& message) {
  ctx.correct = false;
  if (ctx.errors.size() < 8) ctx.errors.push_back(message);
}

}  // namespace perfbench
