// Parallel corpus verification.
//
// One corpus pair's verification is completely independent of every
// other pair's — separate programs, separate PoCs, no shared mutable
// state (expression interning is thread-local, solver caches are
// per-run). VerifyCorpus exploits that: it drives core::VerifyPair over
// a pair list on `jobs` threads and returns reports in input order.
//
// Determinism guarantee: for a given pair list and options, every field
// of every report except the wall-clock timings is byte-identical
// whether jobs == 1 or jobs == N. The serial path literally runs the
// same closures in index order, and workers only ever write their own
// result slot, so there is no ordering-dependent state to diverge. A
// corpus-wide test asserts this equality. (Configuring deadlines makes
// verdicts clock-dependent by design; the guarantee then holds whenever
// the budgets are either comfortably met or comfortably blown in both
// runs.)
//
// Stopping a pair: a pair stops early for exactly two reasons, both
// carried by `options` and both polled by the CancelToken every hot
// loop of the pipeline already checks — its `deadline_ms` expires (a
// per-pair budget: each pair's clock starts when that pair does), or
// its `cancel_flag` goes nonzero (the CLI's SIGINT/SIGTERM drain). So
// one hung pair degrades to a kFailure report at its next poll while
// every other pair finishes normally.
//
// Beyond the classic path, CorpusRunConfig layers on the production
// robustness machinery (DESIGN.md §12):
//   - isolation: each pair runs on a supervised, sandboxed pool of
//     persistent worker processes (core/supervisor.h) instead of
//     in-process; a worker takes its budget from its own flags
//     (IsolationOptions), and the pool takes `options.cancel_flag` as
//     its interrupt;
//   - cache: the disk tier (core/artifact_disk.h) under `corpus
//     --cache-dir`. A pair whose report is stored is replayed from it
//     without running; every other pair runs and its report is stored
//     when it is a clean completion. Resuming a killed run is rerunning
//     over the same directory.
// Once `options.cancel_flag` is raised the run drains: in-flight pairs
// are reaped at their next poll (or their workers killed), pending
// pairs never start, and nothing cancelled is stored.
#pragma once

#include <vector>

#include "core/octopocs.h"
#include "corpus/pairs.h"

namespace octopocs::core {

class DiskArtifactStore;
struct IsolationOptions;
class WorkerPool;

struct CorpusRunConfig {
  /// Pipeline runs in flight at once; <= 1 runs serially.
  unsigned jobs = 1;
  /// Non-null runs every pair in a supervised worker process, on
  /// `worker_pool` or, when that is null, on a pool of `jobs` workers
  /// built for this run.
  const IsolationOptions* isolation = nullptr;
  /// The pool isolated pairs run on when the caller wants to own it
  /// (to read its stats afterwards, or to keep workers warm across
  /// runs). Ignored without `isolation`.
  WorkerPool* worker_pool = nullptr;
  /// Non-null looks each pair's ReportKey up before running it and
  /// stores what PutReport's rule allows. Null computes no key.
  DiskArtifactStore* cache = nullptr;
};

/// Verifies `pairs[i]` into slot i of the result under `config` (see
/// CorpusRunConfig). An empty pair list returns an empty vector without
/// touching any worker machinery. Pairs start in input order.
std::vector<VerificationReport> VerifyCorpus(
    const std::vector<corpus::Pair>& pairs, const PipelineOptions& options,
    const CorpusRunConfig& config);

/// Classic form: in-process, `jobs` at a time, no cache.
std::vector<VerificationReport> VerifyCorpus(
    const std::vector<corpus::Pair>& pairs, const PipelineOptions& options,
    unsigned jobs);

}  // namespace octopocs::core
