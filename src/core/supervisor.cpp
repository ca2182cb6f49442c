#include "core/supervisor.h"

#include <chrono>
#include <thread>

#ifndef _WIN32
#include <signal.h>
#endif

#include "core/report_io.h"
#include "support/rng.h"

namespace octopocs::core {

namespace {

#ifndef _WIN32
constexpr int kSigXcpu = SIGXCPU;
constexpr int kSigKill = SIGKILL;
#else
constexpr int kSigXcpu = 24;
constexpr int kSigKill = 9;
#endif

VerificationReport InfraFailureReport(std::string detail,
                                      bool deadline_expired,
                                      bool exception_contained) {
  VerificationReport report;
  report.verdict = Verdict::kFailure;
  report.type = ResultType::kFailure;
  report.detail = std::move(detail);
  report.failed_phase = "worker";
  report.deadline_expired = deadline_expired;
  report.exception_contained = exception_contained;
  return report;
}

/// Capped exponential backoff with deterministic jitter, sliced into
/// 10ms naps so an interrupt drains promptly even mid-backoff.
void BackoffNap(int pair_idx, unsigned attempt,
                const std::atomic<int>* interrupt) {
  std::uint64_t nap_ms = RetryBackoffMs(pair_idx, attempt);
  while (nap_ms > 0) {
    if (interrupt != nullptr &&
        interrupt->load(std::memory_order_relaxed) != 0) {
      break;
    }
    const std::uint64_t slice = nap_ms < 10 ? nap_ms : 10;
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    nap_ms -= slice;
  }
}

std::string QuarantineDetail(unsigned attempts, ChildOutcome outcome,
                             const support::SubprocessResult& child) {
  std::string why(ChildOutcomeName(outcome));
  if (outcome == ChildOutcome::kCrashSignal) {
    why += ' ';
    why += std::to_string(child.term_signal);
  } else if (outcome == ChildOutcome::kNonzeroExit) {
    why += ' ';
    why += std::to_string(child.exit_code);
  } else if (outcome == ChildOutcome::kSpawnError) {
    why += ": " + child.error;
  }
  return "quarantined after " + std::to_string(attempts) +
         " worker attempt(s): " + why;
}

}  // namespace

std::string_view ChildOutcomeName(ChildOutcome outcome) {
  switch (outcome) {
    case ChildOutcome::kCleanReport: return "clean-report";
    case ChildOutcome::kMalformedReport: return "malformed-report";
    case ChildOutcome::kNonzeroExit: return "nonzero-exit";
    case ChildOutcome::kCrashSignal: return "crash-signal";
    case ChildOutcome::kResourceKill: return "resource-kill";
    case ChildOutcome::kTimeout: return "timeout";
    case ChildOutcome::kInterrupted: return "interrupted";
    case ChildOutcome::kSpawnError: return "spawn-error";
  }
  return "?";
}

bool IsRetryableOutcome(ChildOutcome outcome) {
  switch (outcome) {
    case ChildOutcome::kMalformedReport:
    case ChildOutcome::kNonzeroExit:
    case ChildOutcome::kCrashSignal:
    case ChildOutcome::kSpawnError:
      return true;
    case ChildOutcome::kCleanReport:
    case ChildOutcome::kResourceKill:
    case ChildOutcome::kTimeout:
    case ChildOutcome::kInterrupted:
      return false;
  }
  return false;
}

ChildOutcome ClassifyChild(const support::SubprocessResult& result,
                           VerificationReport* report) {
  switch (result.status) {
    case support::SubprocessStatus::kSpawnError:
      return ChildOutcome::kSpawnError;
    case support::SubprocessStatus::kSignaled:
      // SIGXCPU is the CPU rlimit's soft cap; SIGKILL is its hard cap
      // (or the kernel OOM killer) — a cap firing is deterministic, so
      // these are final, not transient. Every other signal is a worker
      // crash worth retrying.
      return (result.term_signal == kSigXcpu ||
              result.term_signal == kSigKill)
                 ? ChildOutcome::kResourceKill
                 : ChildOutcome::kCrashSignal;
    case support::SubprocessStatus::kExited: {
      if (result.exit_code != 0) return ChildOutcome::kNonzeroExit;
      std::string error;
      VerificationReport parsed;
      if (!UnmarshalWorkerReport(result.output, &parsed, &error)) {
        return ChildOutcome::kMalformedReport;
      }
      if (report != nullptr) *report = std::move(parsed);
      return ChildOutcome::kCleanReport;
    }
  }
  return ChildOutcome::kSpawnError;
}

std::uint64_t RetryBackoffMs(int pair_idx, unsigned attempt) {
  constexpr std::uint64_t kBaseMs = 20;
  constexpr std::uint64_t kCapMs = 250;
  std::uint64_t base = kBaseMs << (attempt < 8 ? attempt : 8);
  if (base > kCapMs) base = kCapMs;
  // ±50% jitter, deterministic per (pair, attempt).
  Rng rng((static_cast<std::uint64_t>(static_cast<std::uint32_t>(pair_idx))
           << 32) ^
          (attempt + 0x9E3779B97F4A7C15ULL));
  const std::uint64_t half = base / 2;
  return half + rng.Below(base + 1);  // [base/2, 3*base/2]
}

// -- WorkerPool ---------------------------------------------------------------

WorkerPool::WorkerPool(const IsolationOptions& isolation, unsigned size)
    : isolation_(isolation) {
  if (size == 0) size = 1;
  slots_.reserve(size);
  for (unsigned i = 0; i < size; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    free_.push_back(slots_.back().get());
  }
}

WorkerPool::~WorkerPool() {
  // A clean shutdown request first (covers workers mid-write), then the
  // unconditional kill — the pool must never leave orphans behind.
  for (auto& slot : slots_) {
    if (slot->proc.alive()) {
      slot->proc.WriteLine(std::string(kPoolExitLine));
      slot->proc.Kill();
    }
  }
}

WorkerPool::Stats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

WorkerPool::Slot* WorkerPool::Acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !free_.empty(); });
  Slot* slot = free_.back();
  free_.pop_back();
  return slot;
}

void WorkerPool::Release(Slot* slot) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(slot);
  }
  cv_.notify_one();
}

SupervisedResult WorkerPool::RunPair(const corpus::Pair& pair,
                                     const std::atomic<int>* interrupt) {
  Slot* slot = Acquire();
  SupervisedResult result;

  for (unsigned attempt = 0;; ++attempt) {
    if (interrupt != nullptr &&
        interrupt->load(std::memory_order_relaxed) != 0) {
      result.report = InfraFailureReport(
          "interrupted before the worker could start", true, false);
      result.last_outcome = ChildOutcome::kInterrupted;
      break;
    }

    ++result.attempts;
    support::SubprocessResult child;
    ChildOutcome outcome;

    // (Re)spawn lazily: the first pair a slot serves pays the fork +
    // warmup; every later pair on a surviving worker rides for free.
    if (!slot->proc.alive()) {
      std::vector<std::string> argv;
      argv.reserve(2 + isolation_.worker_args.size());
      argv.push_back(isolation_.worker_binary);
      argv.push_back("pool-worker");
      for (const std::string& arg : isolation_.worker_args) {
        argv.push_back(arg);
      }
      support::SubprocessLimits limits;
      limits.rlimit_mb = isolation_.rlimit_mb;
      limits.cpu_seconds = isolation_.cpu_seconds;
      if (slot->proc.Spawn(argv, limits, &child.error)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.spawns;
        if (slot->ever_spawned) ++stats_.respawns;
        slot->ever_spawned = true;
      }
    }

    if (!slot->proc.alive()) {
      outcome = ChildOutcome::kSpawnError;  // `child.error` says why
    } else {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.dispatches;
      }
      if (!slot->proc.WriteLine(std::string(kPoolPairPrefix) +
                                std::to_string(pair.idx))) {
        // The worker died between pairs (EPIPE). Kill() on the zombie
        // reaps its real wait status, classified exactly like the kEof
        // branch below so both sides of the write/read race agree. Its
        // unframed stdout belongs to no request: discard it.
        child = slot->proc.Kill();
        child.output.clear();
        outcome = ClassifyChild(child, &result.report);
      } else {
        std::string frame;
        switch (slot->proc.ReadFrame(kWorkerDoneSentinel,
                                     isolation_.deadline_ms, interrupt,
                                     &frame)) {
          case support::PersistentProcess::ReadStatus::kOk:
            // A complete frame from a live worker classifies as a worker
            // that exited 0 with this stdout.
            child.status = support::SubprocessStatus::kExited;
            child.exit_code = 0;
            child.output = std::move(frame);
            outcome = ClassifyChild(child, &result.report);
            break;
          case support::PersistentProcess::ReadStatus::kEof:
            // The worker died mid-pair; its wait status drives the
            // crash/resource-kill/nonzero-exit classification. (An exit-0
            // worker with a torn frame classifies as kMalformedReport.)
            child = slot->proc.Reap();
            outcome = ClassifyChild(child, &result.report);
            break;
          case support::PersistentProcess::ReadStatus::kTimeout:
            slot->proc.Kill();
            outcome = ChildOutcome::kTimeout;
            break;
          case support::PersistentProcess::ReadStatus::kInterrupted:
            slot->proc.Kill();
            outcome = ChildOutcome::kInterrupted;
            break;
          case support::PersistentProcess::ReadStatus::kError:
          default:
            slot->proc.Kill();
            outcome = ChildOutcome::kSpawnError;
            break;
        }
      }
    }
    result.last_outcome = outcome;

    switch (outcome) {
      case ChildOutcome::kCleanReport:
        Release(slot);
        return result;
      case ChildOutcome::kTimeout:
        result.report = InfraFailureReport(
            "worker killed at the " + std::to_string(isolation_.deadline_ms) +
                "ms wall-clock cap",
            true, false);
        Release(slot);
        return result;
      case ChildOutcome::kResourceKill:
        result.report = InfraFailureReport(
            std::string("worker killed by a resource cap (signal ") +
                std::to_string(child.term_signal) + ")",
            true, false);
        Release(slot);
        return result;
      case ChildOutcome::kInterrupted:
        result.report = InfraFailureReport(
            "interrupted mid-pair; worker killed", true, false);
        Release(slot);
        return result;
      default:
        break;  // retryable
    }

    // A worker that produced a retryable outcome is poisoned (dead, or
    // alive with a desynced frame stream) — never reuse it.
    if (slot->proc.alive()) slot->proc.Kill();

    if (attempt >= isolation_.max_retries) {
      result.report = InfraFailureReport(
          QuarantineDetail(result.attempts, outcome, child), false, true);
      result.quarantined = true;
      break;
    }
    BackoffNap(pair.idx, attempt, interrupt);
  }

  Release(slot);
  return result;
}

}  // namespace octopocs::core
