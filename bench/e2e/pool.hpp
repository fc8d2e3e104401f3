// The benchmark's thread pool: at most kMaxThreads workers that execute
// one round's slots while the calling thread waits.  In the traced run it
// stands in for the engines' private pools so every slot can be timed from
// outside — each execute call is a span whose parent is the driver's span
// for the round.  The reference replays and golden runs use it too.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace e2e {

class Pool {
 public:
  explicit Pool(int threads);
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  Pool(Pool&&) = delete;
  Pool& operator=(Pool&&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()); }

  /// Run fn(i) for every i in [0, n) on the workers, each inside a span
  /// `slot_name` parented to the caller's current span; returns when all
  /// are done.  The first exception a slot throws is rethrown here.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           const char* slot_name);

 private:
  void worker_main(int index);

  std::mutex mu_;  // guards everything up to next_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
  int busy_ = 0;  // workers inside the current round
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  const char* slot_name_ = "";
  std::uint32_t parent_ = 0;
  std::exception_ptr error_;
  std::atomic<std::size_t> next_{0};  // slot claim counter (lock-free)
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

}  // namespace e2e
