#include "support/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace octopocs::support {

void ParallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Pipeline runs are compute-bound: more workers than hardware threads
  // cannot help, and the extra context switching measurably hurts (a
  // --jobs 4 corpus run on a one-core host clocked 0.93× serial before
  // this clamp). hardware_concurrency may report 0 ("unknown") — treat
  // that as no information, not as one core.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) jobs = std::min(jobs, hw);
  if (jobs <= 1 || count == 1) {
    // Same contract as the parallel path: every index is attempted and
    // the first exception is rethrown after the loop, so a throwing
    // index cannot silently skip the indices behind it.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs, count));
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto claim_until_done = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) threads.emplace_back(claim_until_done);
  for (std::thread& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace octopocs::support
