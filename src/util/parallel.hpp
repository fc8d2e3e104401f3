// The one parallel driver of the campaign engines.
//
// Each engine splits its work into independent tasks, gives each task its
// own partial result and merges the partials sequentially in task order,
// so the merged bytes do not depend on `jobs` or on the thread schedule.
#pragma once

#include <cstddef>
#include <functional>

namespace mcan {

/// The single reading of a `jobs` option: 0 = one per hardware thread (at
/// least 1), a positive value as is; a negative value throws
/// std::invalid_argument naming `jobs`.
[[nodiscard]] int resolve_jobs(int jobs);

/// Call fn(i) once for every i in [0, n).  Inline when jobs <= 1 or n <= 1;
/// otherwise min(jobs, n) threads claim indices off one atomic counter, so
/// fn must be safe to call concurrently for distinct i.  If fn throws, no
/// further index is claimed and the first exception is rethrown once every
/// thread has joined.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t)>& fn);

/// The round loop of an incremental campaign (FuzzCampaign, RareCampaign):
/// plan_round() -> parallel_for(execute_slot) -> merge_round() ->
/// after_merge(), until plan_round() returns 0.
template <class Campaign, class AfterMerge>
void run_rounds(Campaign& campaign, int jobs, AfterMerge&& after_merge) {
  while (const std::size_t n = campaign.plan_round()) {
    parallel_for(n, jobs,
                 [&campaign](std::size_t i) { campaign.execute_slot(i); });
    campaign.merge_round();
    after_merge();
  }
}

}  // namespace mcan
