// Extended-corpus appendix: verification results for pairs 16-22 —
// scenarios the paper discusses but does not measure (double container
// wrapping, renamed clones, three-bunch crashes, a stateful
// use-after-free, a patched divide-by-zero, the mmap input channel, and
// a pair symex cannot reach without the fuzz rung).
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "core/octopocs.h"
#include "core/parallel_verify.h"
#include "corpus/extended.h"

using namespace octopocs;

int main(int argc, char** argv) {
  unsigned jobs = 1;
  bench::Args args(argc, argv);
  while (args.Next()) {
    if (args.flag() == "--jobs") {
      jobs = static_cast<unsigned>(args.Count(1, 256));
    } else {
      args.Unknown();
    }
  }

  std::printf("=== Extended corpus (pairs 16-22, beyond the paper) ===\n\n");

  bench::TextTable table({"Idx", "S", "T", "Scenario", "CWE", "poc'",
                          "Verdict", "Type", "Time(ms)"});

  static const char* kScenario[] = {
      "double container wrap", "renamed clone (detector)",
      "three ep encounters",   "stateful use-after-free",
      "patched divisor",       "mmap input channel",
      "symex-dead, fuzzable"};

  int expected_matches = 0;
  const auto pairs = corpus::BuildExtendedCorpus();
  const auto start = std::chrono::steady_clock::now();
  const auto reports = core::VerifyCorpus(pairs, core::PipelineOptions{},
                                          jobs);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const corpus::Pair& pair = pairs[i];
    const core::VerificationReport& report = reports[i];
    if (std::string(core::ResultTypeName(report.type)) ==
            std::string(corpus::ExpectedResultName(pair.expected)) ||
        (pair.expected == corpus::ExpectedResult::kTypeIII &&
         report.verdict == core::Verdict::kNotTriggerable)) {
      ++expected_matches;
    }
    table.AddRow({std::to_string(pair.idx), pair.s_name, pair.t_name,
                  kScenario[i], pair.cwe,
                  report.poc_generated ? "O" : "X",
                  std::string(core::VerdictName(report.verdict)),
                  std::string(core::ResultTypeName(report.type)),
                  bench::Fmt("%.2f", report.timings.total_seconds * 1e3)});
  }
  table.Print();
  std::printf("\nExpected verdicts reproduced: %d/%zu\n", expected_matches,
              pairs.size());
  std::printf("Wall clock: %.3f s with %u job(s)\n", wall, jobs);
  return expected_matches == static_cast<int>(pairs.size()) ? 0 : 1;
}
