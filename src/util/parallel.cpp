#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.hpp"

namespace mcan {

int resolve_jobs(int jobs) {
  if (jobs < 0) {
    throw std::invalid_argument(
        "jobs must be >= 0 (0 = one per hardware thread), got " +
        std::to_string(jobs));
  }
  if (jobs > 0) return jobs;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  Mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu; the first failure
  const auto worker = [&] {
    try {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      next = n;  // claim nothing more
      MutexLock lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  {
    // jthreads join on every exit from this scope, a failed spawn included.
    const std::size_t threads = std::min(static_cast<std::size_t>(jobs), n);
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mcan
