// The served_mix workload: a live mcan-served child driven by one load
// generator (this process, at most 4 threads on 4 connections).
//
//   open loop    Poisson arrivals at Scale::served_rate for
//                kServedOpenFrac of --seconds; each job is timed from its
//                due time to the receipt of its result, so a stall is
//                charged to every job it delays;
//   closed loop  4 clients, each submitting its next job when the last
//                one's result arrives, for the rest of --seconds.
//
// Job kinds come in equal shares (fuzz, rare, check, attack).  Every job
// has a deadline, and a watchdog on the sending thread pings the daemon
// and watches the stats endpoint: a dead fleet or a stalled queue ends the
// session with a named error instead of a hang.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/backend.hpp"
#include "serve/proto.hpp"
#include "sim/kernel.hpp"

namespace e2e {

/// Share of --seconds spent in the open loop; the closed loop gets the rest.
inline constexpr double kServedOpenFrac = 0.6;

struct ServedJob {
  std::string kind;
  mcan::Json spec;
  bool open_loop = true;
  double due = 0;           ///< open loop: scheduled send time (absolute)
  double submit_start = 0;  ///< absolute now_s() times below; 0 = never
  double submit_end = 0;
  double first_run = 0;     ///< first status other than "queued"
  double done_status = 0;   ///< status reporting a terminal state
  double result_at = 0;     ///< result received
  long long id = 0;
  bool ok = false;
  std::string result;
  std::string error;
};

struct ServedSession {
  std::vector<ServedJob> jobs;  ///< open-loop jobs first, then closed-loop
  std::vector<double> lags_s;   ///< how late the open-loop sender ran
  double closed_start = 0;
  double closed_end = 0;        ///< last closed-loop completion
  mcan::Json stats;             ///< the daemon's stats endpoint at the end
  double rss_mb = 0;            ///< daemon VmHWM
  std::vector<std::string> errors;
};

/// The job spec of `index` in a phase ("open" / "closed"), seeded from the
/// run seed; kind = index mod 4.
[[nodiscard]] mcan::Json served_spec(std::uint64_t seed, const char* phase,
                                     std::size_t index);

/// Due-time offsets (seconds from the start of the open loop) of a run's
/// arrival schedule: Poisson arrivals, served_rate * open_s of them.
[[nodiscard]] std::vector<double> open_schedule(const Scale& s,
                                                std::uint64_t seed,
                                                double open_s);

/// Run `spec` to completion in this process on one thread (the local
/// equivalent of a served job; the current kernel applies) and return the
/// finished backend.
[[nodiscard]] std::unique_ptr<mcan::CampaignBackend> run_backend(
    const mcan::Json& spec);

/// run_backend(spec)'s result bytes.
[[nodiscard]] std::string local_result(const mcan::Json& spec);

/// Order-independent digest of (spec, result) pairs.
[[nodiscard]] std::string served_digest(const std::vector<ServedJob>& jobs);

/// One full session against a fresh daemon (spans are recorded when
/// tracing is on).  `open_s`/`closed_s` split the window.
[[nodiscard]] ServedSession drive_served(const RunOptions& opt, double open_s,
                                         double closed_s);

/// The open loop's due-to-result latencies in seconds.  A failed or refused
/// job counts as the job deadline: it missed any latency limit.
[[nodiscard]] std::vector<double> open_latencies(const ServedSession& s);

/// Count the session's jobs into `r`: attempted, and failures grouped by
/// cause; session errors abort the run.
void tally_jobs(const ServedSession& s, RunResult& r);

/// Replay every 10th finished job (--verify-ref: every one) locally on
/// `kernel`, on a pool of opt.jobs threads; each must reproduce the served
/// result bytes, or `r` fails.  Returns the replay's wall seconds.
double replay_served(const RunOptions& opt, const ServedSession& s,
                     mcan::KernelKind kernel, RunResult& r);

/// Parent side of an untraced served_mix run.
[[nodiscard]] RunResult run_served(const RunOptions& opt);

}  // namespace e2e
