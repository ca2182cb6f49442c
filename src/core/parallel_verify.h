// Parallel corpus verification.
//
// One corpus pair's verification is completely independent of every
// other pair's — separate programs, separate PoCs, no shared mutable
// state (expression interning is thread-local, solver caches are
// per-run). VerifyCorpus exploits that: it drives core::VerifyPair over
// a pair list on a worker pool and returns reports in input order.
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
// Watchdog: with pair_deadline_ms > 0 each pair runs under that
// wall-clock budget twice over — the pipeline's own deadline machinery
// polls it cooperatively, and a reaper thread additionally raises the
// pair's kill switch once the budget passes, so one hung pair degrades
// to a kFailure report while every other pair finishes normally. The
// reaper sleeps on a condition variable bounded by the nearest running
// pair's deadline (woken when a pair starts), not on a fixed-period
// spin.
//
// Beyond the classic path, CorpusRunConfig layers on the production
// robustness machinery (DESIGN.md §12):
//   - isolation: each pair runs on a supervised, sandboxed pool of
//     persistent worker processes (core/supervisor.h) instead of
//     in-process;
//   - journal: a write-ahead crash journal records started/finished
//     pairs (core/journal.h);
//   - resume: pairs already finished in a previous journal are replayed
//     without re-running;
//   - interrupt: a SIGINT/SIGTERM flag drains the run — in-flight pairs
//     are cancelled (kill switch) or their workers killed, pending
//     pairs never start, and nothing cancelled is journaled as
//     finished.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "core/octopocs.h"
#include "corpus/pairs.h"

namespace octopocs::core {

struct IsolationOptions;
class Journal;
class WorkerPool;

struct CorpusRunConfig {
  /// Pipeline runs in flight at once; <= 1 runs serially.
  unsigned jobs = 1;
  /// Per-pair wall-clock budget, ms (0 = none). In-process pairs get
  /// the watchdog + in-pipeline deadline; isolated pairs communicate it
  /// to the worker via flags and rely on IsolationOptions::deadline_ms
  /// as the hard backstop.
  std::uint64_t pair_deadline_ms = 0;
  /// Expected per-pair cost for LPT start ordering (see VerifyCorpus).
  const std::vector<double>* cost_hints = nullptr;
  /// Non-null runs every pair in a supervised worker process, on
  /// `worker_pool` or, when that is null, on a pool of `jobs` workers
  /// built for this run.
  const IsolationOptions* isolation = nullptr;
  /// The pool isolated pairs run on when the caller wants to own it
  /// (to read its stats afterwards, or to keep workers warm across
  /// runs). Ignored without `isolation`.
  WorkerPool* worker_pool = nullptr;
  /// Non-null journals started/finished records per pair.
  Journal* journal = nullptr;
  /// Pairs (by pair.idx) already finished in a resumed journal: their
  /// reports are copied into the result without re-running.
  const std::map<int, VerificationReport>* resume_finished = nullptr;
  /// External drain switch (the CLI's signal flag): nonzero stops new
  /// pairs from starting and cancels running ones. Not owned.
  const std::atomic<int>* interrupt = nullptr;
};

/// Verifies `pairs[i]` into slot i of the result under `config` (see
/// CorpusRunConfig). An empty pair list returns an empty vector without
/// touching any worker machinery.
///
/// `cost_hints`, when non-null and the same length as `pairs`, gives an
/// expected per-pair cost (e.g. a recorded wall time from a previous
/// run); pairs are then *started* in descending-cost order, which is
/// the classic LPT mitigation for the straggler problem — a long pair
/// picked up last otherwise leaves every other worker idle behind it.
/// Scheduling order never affects report content (each pair writes only
/// its own input-order slot), so hints may be stale, partial garbage,
/// or from a different machine without harming determinism.
std::vector<VerificationReport> VerifyCorpus(
    const std::vector<corpus::Pair>& pairs, const PipelineOptions& options,
    const CorpusRunConfig& config);

/// Classic form: jobs + optional watchdog budget + optional LPT hints.
std::vector<VerificationReport> VerifyCorpus(
    const std::vector<corpus::Pair>& pairs, const PipelineOptions& options,
    unsigned jobs, std::uint64_t pair_deadline_ms = 0,
    const std::vector<double>* cost_hints = nullptr);

}  // namespace octopocs::core
