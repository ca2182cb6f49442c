// Table II reproduction: vulnerability verification results of OCTOPOCS
// over all 15 corpus pairs.
//
// Paper reference (DSN'21, Table II): 6 Type-I, 3 Type-II, 5 Type-III,
// 1 Failure — 14 of 15 pairs verified. Columns mirror the paper: the
// pair, the modelled vulnerability, whether poc' was generated, and the
// verification outcome.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"

using namespace octopocs;

int main(int argc, char** argv) {
  unsigned jobs = 1;
  core::PipelineOptions opts;
  opts.verify_exec.fuel = 2'000'000;  // generous hang detector
  bench::Args args(argc, argv);
  while (args.Next()) {
    if (args.flag() == "--jobs") {
      jobs = static_cast<unsigned>(args.Count(1, 256));
    } else if (args.flag() == "--pair-deadline-ms") {
      // Optional per-pair wall-clock bound (each pair's pipeline
      // deadline): keeps a pathological pair from stalling a CI run of
      // the bench; over-budget pairs show as Failure.
      opts.deadline_ms = args.Count(0, 0xFFFFFFFFu);
    } else {
      args.Unknown();
    }
  }

  std::printf("=== Table II: vulnerability verification results ===\n");
  std::printf("(paper: 14/15 verified; Idx-15 fails on the CFG defect)\n\n");

  bench::TextTable table({"Idx", "S", "T", "Vuln", "CWE", "poc'",
                          "Verification", "Type", "Time(s)"});

  const std::vector<corpus::Pair> pairs = corpus::BuildCorpus();
  const auto start = std::chrono::steady_clock::now();
  const auto reports = core::VerifyCorpus(pairs, opts, jobs);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  int verified = 0, triggered = 0, not_triggerable = 0, failures = 0;
  int type_matches = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const corpus::Pair& pair = pairs[i];
    const core::VerificationReport& report = reports[i];

    const bool ok = report.verdict != core::Verdict::kFailure;
    if (ok) ++verified;
    switch (report.verdict) {
      case core::Verdict::kTriggered:
      case core::Verdict::kTriggeredByFuzzing: ++triggered; break;
      case core::Verdict::kNotTriggerable: ++not_triggerable; break;
      case core::Verdict::kFailure: ++failures; break;
    }
    if (std::string(core::ResultTypeName(report.type)) ==
        std::string(corpus::ExpectedResultName(pair.expected))) {
      ++type_matches;
    }

    table.AddRow({std::to_string(pair.idx),
                  pair.s_name + " " + pair.s_version,
                  pair.t_name + " " + pair.t_version, pair.vuln_id,
                  pair.cwe, report.poc_generated ? "O" : "X",
                  ok ? "O" : "X",
                  std::string(core::ResultTypeName(report.type)),
                  bench::Fmt("%.3f", report.timings.total_seconds)});
  }
  table.Print();

  std::printf(
      "\nSummary: %d/15 verified (paper: 14/15) | Triggered: %d "
      "(paper: 9) | NotTriggerable: %d (paper: 5) | Failure: %d "
      "(paper: 1)\n",
      verified, triggered, not_triggerable, failures);
  std::printf("Result types matching Table II: %d/15\n", type_matches);
  std::printf("Wall clock: %.3f s with %u job(s)\n", wall, jobs);
  return type_matches == 15 ? 0 : 1;
}
