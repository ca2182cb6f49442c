// Patch-priority triage (the paper's "Practical usage", §VII).
//
// A developer's clone detector reported 15 propagated vulnerable code
// clones. Which ones must be patched *now*? Running OCTOPOCS over every
// pair splits the list into (a) clones that are live threats — a
// reformed PoC demonstrably crashes the binary — and (b) clones that
// cannot currently be triggered and can wait for routine maintenance.
//
//   ./build/examples/patch_triage
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/octopocs.h"

using namespace octopocs;

int main() {
  struct Finding {
    const corpus::Pair* pair;
    core::VerificationReport report;
  };

  const std::vector<corpus::Pair> corpus_pairs = corpus::BuildCorpus();
  std::vector<Finding> findings;
  for (const corpus::Pair& pair : corpus_pairs) {
    core::PipelineOptions opts;
    opts.verify_exec.fuel = 2'000'000;
    findings.push_back({&pair, core::VerifyPair(pair, opts)});
  }

  // Urgent first, then unverifiable (needs a human), then safe-for-now.
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return static_cast<int>(a.report.verdict) <
                            static_cast<int>(b.report.verdict);
                   });

  std::printf("PATCH PRIORITY REPORT — %zu propagated clones analysed\n",
              findings.size());
  std::printf("======================================================\n");

  const char* bucket = "";
  for (const Finding& f : findings) {
    const char* heading = "";
    switch (f.report.verdict) {
      case core::Verdict::kTriggered:
      case core::Verdict::kTriggeredByFuzzing:
        heading = "PATCH IMMEDIATELY — exploit input generated";
        break;
      case core::Verdict::kNotTriggerable:
        heading = "SAFE FOR NOW — clone present but not triggerable";
        break;
      case core::Verdict::kFailure:
        heading = "NEEDS MANUAL ANALYSIS — tooling could not decide";
        break;
    }
    if (std::string(bucket) != heading) {
      bucket = heading;
      std::printf("\n[%s]\n", heading);
    }
    std::printf("  %-22s %-14s in %-26s", f.pair->vuln_id.c_str(),
                f.pair->cwe.c_str(), f.pair->t_name.c_str());
    if (f.report.verdict == core::Verdict::kTriggered) {
      std::printf(" | PoC: %zu bytes, crash: %s",
                  f.report.reformed_poc.size(),
                  vm::TrapName(f.report.observed_trap).data());
    } else if (f.report.verdict == core::Verdict::kNotTriggerable) {
      std::printf(" | why: %s",
                  f.report.symex_status == symex::SymexStatus::kUnsat
                      ? "vulnerable context cannot be delivered"
                      : "shared code unreachable");
    } else {
      std::printf(" | %s", f.report.detail.substr(0, 48).c_str());
    }
    std::printf("\n");
  }

  const int urgent = static_cast<int>(std::count_if(
      findings.begin(), findings.end(), [](const Finding& f) {
        return f.report.verdict == core::Verdict::kTriggered;
      }));
  std::printf("\n%d of %zu clones are live threats.\n", urgent,
              findings.size());
  return 0;
}
