// Fixed-size worker pool and a deterministic parallel-for.
//
// Built for corpus-scale fan-out: each unit of work is one independent
// pipeline run (seconds of CPU), so a mutex-guarded queue is far below
// the noise floor — no lock-free machinery needed. ParallelFor is the
// only entry point most callers want: indices are claimed atomically,
// results are whatever fn(i) writes at slot i, and the first exception
// thrown by any worker is rethrown on the calling thread after every
// worker has drained, so partial failures cannot be silently dropped.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace octopocs::support {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job. A job that throws does not take the process down:
  /// the worker captures the exception (first one wins) and keeps
  /// serving the queue; Wait() rethrows it on the caller.
  void Submit(std::function<void()> job);

  /// Blocks until the queue is empty and every worker is idle, then
  /// rethrows the first exception any job threw since the last Wait().
  void Wait();

  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::exception_ptr first_error_;  // guarded by mutex_
  std::size_t active_ = 0;
  bool stopping_ = false;
};

/// Runs fn(0..count-1) across min(jobs, count, hardware threads)
/// workers. jobs <= 1 (or a single item) degrades to a plain serial
/// loop on the calling thread — the serial and parallel paths execute
/// the *same* per-index closures, which is what makes "parallel output
/// identical to serial" a structural guarantee rather than a test hope.
/// The hardware clamp matters for compute-bound work: asking for more
/// workers than cores only adds scheduling overhead (measured as the
/// 0.93× "speedup" --jobs 4 used to produce on a single-core host).
/// Every index is attempted even when some throw; exceptions are
/// captured and the first one (lowest index wins is NOT guaranteed in
/// parallel) is rethrown after all indices finish — identically for
/// jobs == 1.
void ParallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& fn);

}  // namespace octopocs::support
