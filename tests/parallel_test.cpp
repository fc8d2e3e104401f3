// Tests of the shared parallel driver (util/parallel.hpp): every task runs
// exactly once on at most min(jobs, n) threads, `jobs` resolves in one
// place, and run_rounds() drives plan/execute/merge in order.  Labelled
// `parallel`, which the tsan preset runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace mcan {
namespace {

TEST(ParallelFor, EveryIndexOnceOnBoundedThreads) {
  for (const std::size_t n : {0u, 1u, 5u, 1000u}) {
    for (const int jobs : {1, 4, 16}) {
      const std::string tag =
          "n=" + std::to_string(n) + " jobs=" + std::to_string(jobs);
      std::vector<std::atomic<int>> runs(n);
      std::vector<std::thread::id> by(n);
      parallel_for(n, jobs, [&](std::size_t i) {
        runs[i].fetch_add(1, std::memory_order_relaxed);
        by[i] = std::this_thread::get_id();
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << tag << " i=" << i;
      }
      const std::set<std::thread::id> threads(by.begin(), by.end());
      EXPECT_LE(threads.size(),
                std::min<std::size_t>(static_cast<std::size_t>(jobs), n))
          << tag;
      if (jobs == 1 || n == 1) {
        // Inline: the calling thread runs every task.
        for (const std::thread::id id : by) {
          EXPECT_EQ(id, std::this_thread::get_id()) << tag;
        }
      }
    }
  }
}

TEST(ParallelFor, RethrowsAfterJoin) {
  for (const int jobs : {1, 4}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(100, jobs,
                              [&](std::size_t i) {
                                ran.fetch_add(1);
                                if (i == 3) throw std::runtime_error("task 3");
                              }),
                 std::runtime_error)
        << "jobs=" << jobs;
    // Inline, the batch stops at the throwing task.
    if (jobs == 1) {
      EXPECT_EQ(ran.load(), 4);
    }
  }
}

TEST(ResolveJobs, ZeroIsHardwareNegativeThrows) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
  EXPECT_THROW((void)resolve_jobs(-1), std::invalid_argument);
  try {
    (void)resolve_jobs(-3);
    FAIL() << "resolve_jobs(-3) did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("jobs"), std::string::npos)
        << e.what();
  }
}

/// A toy round campaign: three rounds of 4, 7 and 1 slots; each slot
/// squares its index, and merge folds the slots in slot order.
class ToyCampaign {
 public:
  std::size_t plan_round() {
    static constexpr std::size_t kRounds[] = {4, 7, 1};
    if (round_ == 3) return 0;
    slots_.assign(kRounds[round_], 0);
    return slots_.size();
  }
  void execute_slot(std::size_t i) { slots_[i] = static_cast<long long>(i * i); }
  void merge_round() {
    for (const long long v : slots_) log_.push_back(v);
    ++round_;
  }
  [[nodiscard]] const std::vector<long long>& log() const { return log_; }
  [[nodiscard]] std::size_t round() const { return round_; }

 private:
  std::size_t round_ = 0;
  std::vector<long long> slots_;
  std::vector<long long> log_;
};

TEST(RunRounds, MergesInSlotOrderForEveryJobCount) {
  std::vector<long long> first;
  for (const int jobs : {1, 4, 16}) {
    ToyCampaign c;
    std::vector<std::size_t> after;
    run_rounds(c, jobs, [&] { after.push_back(c.round()); });
    EXPECT_EQ(after, (std::vector<std::size_t>{1, 2, 3})) << jobs;
    if (first.empty()) {
      first = c.log();
    } else {
      EXPECT_EQ(c.log(), first) << jobs;
    }
  }
  EXPECT_EQ(first, (std::vector<long long>{0, 1, 4, 9, 0, 1, 4, 9, 16, 25,
                                           36, 0}));
}

}  // namespace
}  // namespace mcan
