// Shared vocabulary of bench_e2e: clocks, order statistics, seeds, result
// records and the workload/scale tables every mode reads.
#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/proto.hpp"

namespace e2e {

/// Monotonic clock in seconds / nanoseconds.  steady_clock is
/// CLOCK_MONOTONIC on Linux, which is system-wide, so a child process's
/// timestamp can be subtracted from its parent's (setup_s relies on it).
[[nodiscard]] double now_s();
[[nodiscard]] std::int64_t now_ns();

/// Linear-interpolated quantile (numpy's default); NaN on an empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

[[nodiscard]] std::uint64_t fnv1a(std::string_view s,
                                  std::uint64_t h = 14695981039346656037ULL);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// A 31-bit seed derived from the run seed, a tag and an index, so every
/// engine seed of a run follows from --seed alone.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::string_view tag,
                                        std::uint64_t index);

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB; 0 when
/// /proc does not say.
[[nodiscard]] double vmhwm_mb(pid_t pid = 0);

/// Restart this process's VmHWM at its current RSS (writes "5" to
/// /proc/self/clear_refs).  Where the kernel refuses, VmHWM stays the
/// process-lifetime peak.
void reset_vmhwm();

/// Raised by SIGINT/SIGTERM; every loop of the harness polls it.
extern std::atomic<bool> g_stop;

// ---------------------------------------------------------------------------
// Workloads and their sizes.
// ---------------------------------------------------------------------------

enum class Workload { Rare, Fuzz, Check, Served };

inline constexpr std::array<Workload, 4> kWorkloads = {
    Workload::Rare, Workload::Fuzz, Workload::Check, Workload::Served};

[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view s);

/// Job sizes.  `full` is what the benchmark measures; `smoke` is ~1/100 of
/// it for the ctest smoke run.  Local workloads repeat one fixed job; the
/// served workload is an open-loop then a closed-loop phase.
struct Scale {
  std::string name;
  long long rare_trials;        ///< trials per rare job
  std::uint64_t fuzz_execs;     ///< execs per fuzz job (then triage+export)
  int check_max_k;              ///< check job: k = 1..check_max_k, full window
  int check_k5_hi;              ///< then k = 5 over the window [-4, this]
  double served_rate;           ///< open-loop arrivals per second
  // Traced-run probes of the engines a workload does not own (the check
  // probe is the check job itself).
  long long probe_rare_trials;
  std::uint64_t probe_fuzz_execs;
  double probe_served_s;
  // Layer-function samples.
  long long sim_steps;
  int replay_specs;
  int minimize_findings;
  int flip_cases;
  int clone_reps;
  int io_reps;
};

[[nodiscard]] const Scale& full_scale();
[[nodiscard]] const Scale& smoke_scale();

inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr double kDefaultSeconds = 20;  ///< BENCHMARK.json run_seconds
inline constexpr int kMaxThreads = 4;  ///< pool, engine jobs and connections
/// Set-ups per run; setup_s is their median (one set-up is well under a
/// millisecond, so a few samples would be mostly scheduler noise).
inline constexpr int kSetupSamples = 21;

/// min(4, nproc).
[[nodiscard]] int engine_jobs();

/// What one invocation runs.
struct RunOptions {
  Workload workload = Workload::Rare;
  std::uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  bool trace = false;
  const Scale* scale = &full_scale();
  int jobs = 1;               ///< engine threads (engine_jobs() by default)
  bool verify_ref = false;    ///< rerun every unit on ref, not a 10% slice
  std::string work_dir;       ///< this run's scratch directory
  std::string self_exe;       ///< bench_e2e itself, for workload children
  std::string served_exe;     ///< mcan-served
  std::string expected_path;  ///< committed golden digests
  std::string inject_spec;    ///< served: one extra job submitted first
  std::string trace_out;      ///< Chrome trace file of a traced run
};

/// The committed golden digest for `key` at this scale (expected.json),
/// or "" when the file has none.
[[nodiscard]] std::string expected_digest(const RunOptions& opt,
                                          const std::string& key);

// ---------------------------------------------------------------------------
// One run's result, as printed.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  Workload workload = Workload::Rare;
  std::uint64_t seed = kDefaultSeed;
  bool traced = false;
  long long attempted = 0;
  long long failed = 0;             ///< operations that failed
  std::vector<std::string> errors;  ///< named errors: failures and aborts
  std::vector<Metric> metrics;
  mcan::Json detail = mcan::Json::object();  ///< sample counts etc. (--out)

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// `n` operations failed for the reason `what`.
  void fail(std::string what, long long n = 1) {
    failed += n;
    errors.push_back(n == 1 ? std::move(what)
                            : std::to_string(n) + "x " + std::move(what));
  }
  /// The run itself went wrong (no single operation to blame).
  void abort_run(std::string what) { errors.push_back(std::move(what)); }
  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
};

/// The result line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string result_line(const RunResult& r);
/// result_line plus workload, seed, trace flag, errors and detail.
[[nodiscard]] std::string result_record(const RunResult& r);
/// Human-readable metric table.
[[nodiscard]] std::string result_table(const RunResult& r);

/// A double with all its digits (json_number: "%.17g").
[[nodiscard]] std::string num(double v);

/// Read a whole file; false when it cannot be opened.
[[nodiscard]] bool read_file(const std::string& path, std::string& out);

/// One metric as BENCHMARK.json declares it (bound: end-to-end only).
struct DeclaredMetric {
  std::string name;
  std::string unit;
  bool lower_better = true;
  double bound = 0;
};

/// What BENCHMARK.json declares.
struct Declared {
  std::vector<std::string> workloads;
  double run_seconds = 0;
  std::vector<DeclaredMetric> e2e;
  std::vector<DeclaredMetric> layers;
};

/// Read the BENCHMARK.json this binary was built from; false with a
/// message when the file is missing or malformed.
[[nodiscard]] bool load_declared(Declared& out, std::string& error);

}  // namespace e2e
