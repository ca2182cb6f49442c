#include "core/parallel_verify.h"

#include <atomic>
#include <memory>

#include "core/artifact_disk.h"
#include "core/supervisor.h"
#include "support/parallel_for.h"
#include "support/trace.h"

namespace octopocs::core {

namespace {

bool Tripped(const std::atomic<int>* flag) {
  return flag != nullptr && flag->load(std::memory_order_relaxed) != 0;
}

VerificationReport InterruptedReport() {
  VerificationReport report;
  report.verdict = Verdict::kFailure;
  report.type = ResultType::kFailure;
  report.detail = "interrupted before start";
  report.failed_phase = "worker";
  report.deadline_expired = true;
  return report;
}

}  // namespace

std::vector<VerificationReport> VerifyCorpus(
    const std::vector<corpus::Pair>& pairs, const PipelineOptions& options,
    const CorpusRunConfig& config) {
  std::vector<VerificationReport> reports(pairs.size());
  if (pairs.empty()) return reports;

  const bool isolated = config.isolation != nullptr;
  // Isolated pairs run on the caller's worker pool, or on one local to
  // this run: workers spawn lazily, so a run served wholly from the
  // cache forks none, and the pool's destructor reaps them before this
  // function returns.
  std::unique_ptr<WorkerPool> local_pool;
  WorkerPool* pool = config.worker_pool;
  if (isolated && pool == nullptr) {
    local_pool = std::make_unique<WorkerPool>(*config.isolation, config.jobs);
    pool = local_pool.get();
  }

  support::ParallelFor(pairs.size(), config.jobs, [&](std::size_t i) {
    const corpus::Pair& pair = pairs[i];

    // A stored pair replays its report: no execution, no span — the
    // pair never ran in this process.
    ArtifactKey key;
    if (config.cache != nullptr) {
      key = ReportKey(pair, options);
      if (std::optional<VerificationReport> stored =
              GetReport(*config.cache, key)) {
        reports[i] = std::move(*stored);
        return;
      }
    }

    // Draining: pairs not yet started stay unstarted.
    if (Tripped(options.cancel_flag)) {
      reports[i] = InterruptedReport();
      return;
    }

    // One span per pair, tagged with the input-order index, so a trace
    // of a corpus run shows which pair each nested phase span belongs
    // to and how the threads interleaved them.
    support::TraceSpan pair_span(options.tracer, "pair",
                                 static_cast<std::int64_t>(i));

    // A pair cancelled by the drain reports deadline_expired, in process
    // and from the pool alike, so the store rule keeps it out.
    reports[i] = isolated ? pool->RunPair(pair, options.cancel_flag).report
                          : VerifyPair(pair, options);
    if (config.cache != nullptr) PutReport(*config.cache, key, reports[i]);
  });
  return reports;
}

std::vector<VerificationReport> VerifyCorpus(
    const std::vector<corpus::Pair>& pairs, const PipelineOptions& options,
    unsigned jobs) {
  CorpusRunConfig config;
  config.jobs = jobs;
  return VerifyCorpus(pairs, options, config);
}

}  // namespace octopocs::core
