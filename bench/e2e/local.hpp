// The three local workloads: one fixed job each, run through the same
// public drivers the CLIs use (run_campaign; run_fuzz + export_findings;
// run_model_check per sweep), repeated back to back in a child process
// for --seconds.  The parent times the child from outside, checks every
// result against the reference kernel, and turns the job records into the
// end-to-end metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "fuzz/engine.hpp"
#include "rare/campaign.hpp"
#include "scenario/model_check.hpp"

namespace e2e {

struct JobRecord {
  std::uint64_t seed = 0;
  long long units = 0;   ///< trials, execs or flip patterns
  double engine_s = 0;   ///< the engine call alone
  double wall_s = 0;     ///< the whole fixed job, as the user waits for it
  double peak_mb = 0;    ///< peak resident set during the job (child only)
  std::string digest;    ///< canonical result text (wall-clock fields zeroed)
};

[[nodiscard]] mcan::RareConfig rare_config(long long trials,
                                           std::uint64_t seed, int jobs);
[[nodiscard]] mcan::FuzzConfig fuzz_config(std::uint64_t execs,
                                           std::uint64_t seed, int jobs);
[[nodiscard]] mcan::ModelCheckConfig check_config(int k, int jobs);

/// The sweeps of one check job: k = 1..check_max_k over the full window,
/// then k = 5 over the window [-4, check_k5_hi].  That early part of the
/// window is where the fast kernel runs slower than ref (README, known
/// issues), so a kernel change to short runs shows in this job.
[[nodiscard]] std::vector<mcan::ModelCheckConfig> check_sweeps(const Scale& s,
                                                               int jobs);

/// Seed of job `index` of a workload in a run seeded `run_seed`.
[[nodiscard]] std::uint64_t job_seed(Workload w, std::uint64_t run_seed,
                                     std::uint64_t index);

/// Canonical result texts.  Rare: RareResult::to_json with seconds zeroed.
/// Fuzz: fuzz_stats_json without seconds, plus the reproducer count and a
/// hash of the sorted reproducer file names.  Check: the counts per sweep.
[[nodiscard]] std::string rare_digest(mcan::RareResult r);
[[nodiscard]] std::string fuzz_digest(mcan::FuzzStats st, std::uint64_t seed,
                                      std::vector<std::string> names);
[[nodiscard]] std::string check_digest(
    const std::vector<mcan::ModelCheckResult>& sweeps);

/// One fixed job under the process's current kernel: rare and fuzz at
/// `units` trials / execs (job_units, or a slice of it), check always the
/// scale's full check_sweeps.  Fuzz jobs export their reproducers into
/// `export_dir` (removed afterwards), or only triage them when it is empty.
[[nodiscard]] JobRecord run_local_job(Workload w, const Scale& s,
                                      long long units, std::uint64_t seed,
                                      int jobs, const std::string& export_dir);

/// Trials / execs of a rare / fuzz job at a scale (0 for check and served).
[[nodiscard]] long long job_units(Workload w, const Scale& s);

/// Child side: `--setup-only` builds the engine object of job 0 and prints
/// the monotonic time (ns); otherwise runs jobs for opt.seconds and prints
/// one JSON record per job, with the process's peak RSS during that job.
int local_child_main(const RunOptions& opt, bool setup_only);

/// Parent side of an untraced local run.
[[nodiscard]] RunResult run_local(const RunOptions& opt);

}  // namespace e2e
