// Supervised worker processes: spawn, classify, retry, quarantine.
//
// With isolation on, corpus pairs run on a WorkerPool of persistent
// `octopocs pool-worker` children (support/subprocess.h), and the
// supervisor turns whatever happens to a worker during a pair into
// exactly one well-formed VerificationReport:
//
//   worker answers with a framed report -> the pair's verdict, verbatim
//   worker killed at the deadline cap   -> kFailure, deadline_expired
//   worker killed by RLIMIT_CPU         -> kFailure, deadline_expired
//     (SIGXCPU at the soft cap, SIGKILL at the hard cap — both are the
//     budget firing deterministically, so retrying is pointless)
//   worker crashed (SIGSEGV/SIGABRT/…),
//   exited, or tore its report
//   mid-write (pipe EOF)                -> transient infrastructure
//     failure: retried on a respawned worker with capped exponential
//     backoff + deterministic jitter; after max_retries the pair is
//     QUARANTINED — reported as a contained failure — so one poisoned
//     input can never wedge the fleet by crashing its worker forever.
//
// The classification of a dead worker is a pure function
// (ClassifyChild) so tests can drive every exit path without spawning
// anything.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/octopocs.h"
#include "corpus/pairs.h"
#include "support/subprocess.h"

namespace octopocs::core {

struct IsolationOptions {
  /// Path of the octopocs CLI to exec as the worker (normally
  /// /proc/self/exe).
  std::string worker_binary;
  /// Extra argv appended after `pool-worker` — pipeline flags the
  /// worker needs to reproduce the in-process verdict, plus test hooks.
  std::vector<std::string> worker_args;
  /// Transient-failure retries per pair before quarantine.
  unsigned max_retries = 2;
  /// RLIMIT_AS cap per worker, MiB (0 = unlimited).
  std::uint64_t rlimit_mb = 0;
  /// Hard wall-clock kill per attempt, ms (0 = unlimited). The worker's
  /// own cooperative deadline should be tighter: this is the backstop
  /// for a worker too wedged to honor it.
  std::uint64_t deadline_ms = 0;
  /// RLIMIT_CPU soft cap per worker process, seconds (0 = unlimited).
  /// The kernel counts it over the whole life of the process, so it
  /// caps the sum of every pair a pooled worker serves, not each pair.
  /// A per-pair cap needs a fresh one-slot pool per pair (soak's
  /// resource-hog leg does exactly that).
  std::uint64_t cpu_seconds = 0;
};

enum class ChildOutcome : std::uint8_t {
  kCleanReport,      // exit 0 + well-formed framed report
  kMalformedReport,  // exit 0 but the report is missing/torn (retryable)
  kNonzeroExit,      // worker exited with an error code (retryable)
  kCrashSignal,      // SIGSEGV/SIGABRT/SIGBUS/… (retryable)
  kResourceKill,     // SIGXCPU / SIGKILL — a resource cap fired (final)
  kTimeout,          // supervisor killed it at the wall-clock cap (final)
  kInterrupted,      // supervisor is draining on SIGINT/SIGTERM (final)
  kSpawnError,       // fork failed or the pipe broke (retryable)
};

std::string_view ChildOutcomeName(ChildOutcome outcome);

/// True for outcomes the supervisor retries before quarantining.
bool IsRetryableOutcome(ChildOutcome outcome);

/// Pure classification of one reaped worker, or of a frame read from a
/// live one (passed as kExited 0 with the frame as output). On
/// kCleanReport, `*report` holds the parsed worker report; otherwise it
/// is untouched.
ChildOutcome ClassifyChild(const support::SubprocessResult& result,
                           VerificationReport* report);

/// Backoff before retry `attempt` (0-based): 20ms · 2^attempt, capped at
/// 250ms, with ±50% deterministic jitter keyed on (pair_idx, attempt) so
/// a fleet of retrying supervisors never thunders in lockstep yet every
/// run of the same corpus sleeps identically.
std::uint64_t RetryBackoffMs(int pair_idx, unsigned attempt);

struct SupervisedResult {
  VerificationReport report;
  unsigned attempts = 0;  // dispatches + failed spawns, incl. the last
  ChildOutcome last_outcome = ChildOutcome::kSpawnError;
  bool quarantined = false;
  bool interrupted = false;
};

/// A fleet of persistent `pool-worker` processes (the AFL forkserver
/// idea applied to pair verification), and the only way to run an
/// isolated pair: each worker is forked and warmed once, then fed pair
/// indices over its stdin — `OCTO-PAIR <idx>` per request — and
/// answers each with an OCTO-REPORT/OCTO-DONE frame. Spawn + exec +
/// warmup is paid per *worker* instead of per *pair*, which is what
/// makes --isolate cheap enough to leave on.
///
/// A worker that crashes, wedges past the deadline backstop, tears a
/// frame, or hits a resource cap is classified by ClassifyChild,
/// retried with capped backoff on a freshly respawned worker, and
/// quarantined after max_retries. Verdicts are byte-identical to
/// in-process runs.
///
/// Thread-safe: RunPair may be called from many corpus threads at once;
/// each call checks out one worker from the free list (blocking when
/// all `size` workers are busy) and returns it when done.
class WorkerPool {
 public:
  struct Stats {
    std::uint64_t spawns = 0;      // worker processes forked, total
    std::uint64_t respawns = 0;    // spawns that replaced a dead worker
    std::uint64_t dispatches = 0;  // pair requests written to a worker
  };

  /// `size` workers, lazily spawned on first use. The options are
  /// copied; worker_binary/worker_args must describe the `pool-worker`
  /// subcommand's flags (the pool inserts the subcommand itself).
  WorkerPool(const IsolationOptions& isolation, unsigned size);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Verifies `pair` on a pooled worker. `interrupt`, when non-null and
  /// nonzero, drains promptly: the running worker is SIGKILLed and the
  /// result is marked interrupted (callers must not journal it as
  /// finished).
  SupervisedResult RunPair(const corpus::Pair& pair,
                           const std::atomic<int>* interrupt);

  Stats stats() const;

 private:
  struct Slot {
    support::PersistentProcess proc;
    bool ever_spawned = false;
  };

  Slot* Acquire();
  void Release(Slot* slot);

  IsolationOptions isolation_;
  std::vector<std::unique_ptr<Slot>> slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot*> free_;
  Stats stats_;
};

}  // namespace octopocs::core
