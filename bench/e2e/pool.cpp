#include "pool.hpp"

#include <algorithm>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace e2e {

Pool::Pool(int threads) {
  const int n = std::clamp(threads, 1, kMaxThreads);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

Pool::~Pool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Pool::run(std::size_t n, const std::function<void(std::size_t)>& fn,
               const char* slot_name) {
  if (n == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  n_ = n;
  slot_name_ = slot_name;
  parent_ = current_span();
  error_ = nullptr;
  next_.store(0);
  busy_ = size();
  ++generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return busy_ == 0; });
  fn_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

void Pool::worker_main(int index) {
  trace::name_thread("pool-" + std::to_string(index + 1));
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    const char* name = "";
    std::uint32_t parent = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      fn = fn_;
      n = n_;
      name = slot_name_;
      parent = parent_;
    }
    try {
      for (std::size_t i = next_.fetch_add(1); i < n; i = next_.fetch_add(1)) {
        const Span span(name, parent);
        (*fn)(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      next_.store(n);  // abandon the rest of the round
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (--busy_ == 0) done_cv_.notify_one();
  }
}

}  // namespace e2e
