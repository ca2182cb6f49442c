#include "core/parallel_verify.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/journal.h"
#include "core/supervisor.h"
#include "support/thread_pool.h"
#include "support/trace.h"

namespace octopocs::core {

namespace {

bool Tripped(const std::atomic<int>* interrupt) {
  return interrupt != nullptr &&
         interrupt->load(std::memory_order_relaxed) != 0;
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

  // Longest-expected-first start order (LPT). Identity order without
  // usable hints; a stable sort keeps equal-cost pairs in input order.
  std::vector<std::size_t> order(pairs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (config.cost_hints != nullptr &&
      config.cost_hints->size() == pairs.size()) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return (*config.cost_hints)[a] >
                              (*config.cost_hints)[b];
                     });
  }

  using Clock = std::chrono::steady_clock;
  const bool isolated = config.isolation != nullptr;
  // The in-process watchdog: reaps over-budget pairs, and doubles as
  // the interrupt fan-out (one external flag -> every pair's kill
  // switch). Isolated pairs need neither — their supervisor owns both.
  const bool watched = !isolated && config.pair_deadline_ms > 0;
  const bool interruptible = !isolated && config.interrupt != nullptr;
  const bool reaping = watched || interruptible;

  // Per-pair reaping state. The kill switches outlive every worker (the
  // pool is joined inside ParallelFor before this scope unwinds), and
  // the watchdog only ever reads/writes atomics — the mutex below exists
  // solely for the condition variable's sleep/wake protocol.
  std::vector<std::atomic<bool>> kill(pairs.size());
  // 0 = not started, >0 = steady-clock start tick, -1 = finished.
  std::vector<std::atomic<std::int64_t>> started_at(pairs.size());

  std::mutex reaper_mu;
  std::condition_variable reaper_cv;
  bool reaper_stop = false;
  std::thread watchdog;
  if (reaping) {
    const std::int64_t budget_ticks =
        watched ? std::chrono::duration_cast<Clock::duration>(
                      std::chrono::milliseconds(config.pair_deadline_ms))
                      .count()
                : 0;
    watchdog = std::thread([&, budget_ticks] {
      std::unique_lock<std::mutex> lock(reaper_mu);
      bool drained = false;
      while (!reaper_stop) {
        // Interrupt fan-out: raise every kill switch once, then keep
        // sleeping until the run unwinds (workers observe the switches
        // through their in-pipeline cancel tokens).
        if (interruptible && !drained && Tripped(config.interrupt)) {
          for (auto& k : kill) k.store(true, std::memory_order_relaxed);
          drained = true;
        }
        // Nearest deadline among running pairs; reap the overdue.
        std::int64_t next_tick = 0;
        if (watched) {
          const std::int64_t now = Clock::now().time_since_epoch().count();
          for (std::size_t i = 0; i < started_at.size(); ++i) {
            const std::int64_t t =
                started_at[i].load(std::memory_order_relaxed);
            if (t <= 0) continue;
            const std::int64_t due = t + budget_ticks;
            if (due <= now) {
              kill[i].store(true, std::memory_order_relaxed);
            } else if (next_tick == 0 || due < next_tick) {
              next_tick = due;
            }
          }
        }
        // Sleep until the nearest deadline, a new pair starting (the
        // workers notify), or stop. With an interrupt flag to poll —
        // raised from an async signal handler, which cannot touch a
        // condition variable — cap the nap at 50ms; still a condition
        // wait bounded by a deadline, never a fixed-period spin.
        Clock::time_point until = Clock::time_point::max();
        if (next_tick != 0) {
          until = Clock::time_point(Clock::duration(next_tick));
        }
        if (interruptible && !drained) {
          const Clock::time_point poll =
              Clock::now() + std::chrono::milliseconds(50);
          if (poll < until) until = poll;
        }
        if (until == Clock::time_point::max()) {
          reaper_cv.wait(lock);
        } else {
          reaper_cv.wait_until(lock, until);
        }
      }
    });
  }
  const auto stop_watchdog = [&] {
    if (!reaping) return;
    {
      std::lock_guard<std::mutex> lock(reaper_mu);
      reaper_stop = true;
    }
    reaper_cv.notify_all();
    watchdog.join();
  };

  // Isolated pairs run on the caller's worker pool, or on one local to
  // this run: workers spawn lazily, so a fully resumed run forks none,
  // and the pool's destructor reaps them before this function returns.
  std::unique_ptr<WorkerPool> local_pool;
  WorkerPool* pool = config.worker_pool;
  if (isolated && pool == nullptr) {
    local_pool = std::make_unique<WorkerPool>(*config.isolation, config.jobs);
    pool = local_pool.get();
  }

  support::ParallelFor(pairs.size(), config.jobs, [&](std::size_t slot) {
    const std::size_t i = order[slot];
    const corpus::Pair& pair = pairs[i];

    // Resumed pairs replay their journaled report: no execution, no
    // journal records, no span — the pair never ran in this process.
    if (config.resume_finished != nullptr) {
      const auto it = config.resume_finished->find(pair.idx);
      if (it != config.resume_finished->end()) {
        reports[i] = it->second;
        return;
      }
    }

    // Draining: pairs not yet started stay unstarted (and unjournaled,
    // so a resume re-runs them).
    if (Tripped(config.interrupt)) {
      reports[i] = InterruptedReport();
      return;
    }

    if (config.journal != nullptr) config.journal->Started(pair.idx, 1);

    // One span per pair, tagged with the input-order index, so a trace
    // of a corpus run shows which pair each nested phase span belongs
    // to and how the pool interleaved them.
    support::TraceSpan pair_span(options.tracer, "pair",
                                 static_cast<std::int64_t>(i));

    bool cancelled = false;
    if (isolated) {
      const SupervisedResult supervised =
          pool->RunPair(pair, config.interrupt);
      reports[i] = supervised.report;
      cancelled = supervised.interrupted;
    } else {
      PipelineOptions per_pair = options;
      if (reaping) {
        per_pair.cancel_flag = &kill[i];
        // The in-pipeline deadline is the primary mechanism
        // (fine-grained polls at every hot loop); the watchdog flag
        // above is the backstop that reaps a pair stuck somewhere the
        // deadline isn't threaded through.
        if (watched && (per_pair.deadline_ms == 0 ||
                        per_pair.deadline_ms > config.pair_deadline_ms)) {
          per_pair.deadline_ms = config.pair_deadline_ms;
        }
        started_at[i].store(Clock::now().time_since_epoch().count(),
                            std::memory_order_relaxed);
        reaper_cv.notify_one();  // the nearest deadline may have moved
      }
      reports[i] = VerifyPair(pair, per_pair);
      if (reaping) started_at[i].store(-1, std::memory_order_relaxed);
      // A deadline report produced while draining is an artifact of the
      // interrupt, not a statement about the pair — never journal it.
      cancelled = Tripped(config.interrupt) && reports[i].deadline_expired;
    }

    if (config.journal != nullptr && !cancelled) {
      config.journal->Finished(pair.idx, reports[i]);
    }
  });

  stop_watchdog();
  return reports;
}

std::vector<VerificationReport> VerifyCorpus(
    const std::vector<corpus::Pair>& pairs, const PipelineOptions& options,
    unsigned jobs, std::uint64_t pair_deadline_ms,
    const std::vector<double>* cost_hints) {
  CorpusRunConfig config;
  config.jobs = jobs;
  config.pair_deadline_ms = pair_deadline_ms;
  config.cost_hints = cost_hints;
  return VerifyCorpus(pairs, options, config);
}

}  // namespace octopocs::core
