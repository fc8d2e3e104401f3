#include "local.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "fuzz/triage.hpp"
#include "process.hpp"
#include "sim/kernel.hpp"

namespace e2e {

using mcan::Json;

mcan::RareConfig rare_config(long long trials, std::uint64_t seed, int jobs) {
  mcan::RareConfig c;
  c.protocol = mcan::ProtocolParams::standard_can();
  c.n_nodes = 32;
  c.ber = 1e-5;
  c.mode = mcan::RareMode::kImportance;
  c.seed = seed;
  c.trials = trials;
  c.jobs = jobs;
  return c;
}

mcan::FuzzConfig fuzz_config(std::uint64_t execs, std::uint64_t seed,
                             int jobs) {
  mcan::FuzzConfig c;
  c.protocol = mcan::ProtocolParams::major_can(5);
  c.n_nodes = 3;
  c.seed = seed;
  c.max_execs = execs;
  c.jobs = jobs;
  c.batch = 64;
  return c;
}

mcan::ModelCheckConfig check_config(int k, int jobs) {
  mcan::ModelCheckConfig c;
  c.base.protocol = mcan::ProtocolParams::major_can(5);
  c.base.n_nodes = 3;
  c.base.errors = k;
  c.jobs = jobs;
  return c;
}

std::vector<mcan::ModelCheckConfig> check_sweeps(const Scale& s, int jobs) {
  std::vector<mcan::ModelCheckConfig> sweeps;
  for (int k = 1; k <= s.check_max_k; ++k) {
    sweeps.push_back(check_config(k, jobs));
  }
  mcan::ModelCheckConfig k5 = check_config(5, jobs);
  k5.base.win_hi_rel = s.check_k5_hi;
  sweeps.push_back(k5);
  return sweeps;
}

std::uint64_t job_seed(Workload w, std::uint64_t run_seed,
                       std::uint64_t index) {
  return derive_seed(run_seed, workload_name(w), index);
}

std::string rare_digest(mcan::RareResult r) {
  r.seconds = 0;
  return r.to_json();
}

std::string fuzz_digest(mcan::FuzzStats st, std::uint64_t seed,
                        std::vector<std::string> names) {
  st.elapsed_s = 0;
  std::sort(names.begin(), names.end());
  std::uint64_t h = fnv1a("");
  for (const std::string& n : names) h = fnv1a(n + "\n", h);
  return mcan::fuzz_stats_json(st, mcan::ProtocolParams::major_can(5), 3,
                               seed) +
         "reproducers " + std::to_string(names.size()) + " " + hex64(h) + "\n";
}

std::string check_digest(const std::vector<mcan::ModelCheckResult>& sweeps) {
  std::string s;
  for (const mcan::ModelCheckResult& r : sweeps) {
    s += "k=" + std::to_string(r.cfg.errors) + " window=" +
         std::to_string(r.cfg.win_lo_rel) + ".." +
         std::to_string(r.cfg.window_hi()) +
         " cases=" + std::to_string(r.cases) + " imo=" + std::to_string(r.imo) +
         " double=" + std::to_string(r.double_rx) +
         " loss=" + std::to_string(r.total_loss) +
         " timeouts=" + std::to_string(r.timeouts) +
         " complete=" + (r.complete ? "1" : "0") + "\n";
  }
  return s;
}

long long job_units(Workload w, const Scale& s) {
  switch (w) {
    case Workload::Rare: return s.rare_trials;
    case Workload::Fuzz: return static_cast<long long>(s.fuzz_execs);
    case Workload::Check:
    case Workload::Served: break;
  }
  return 0;
}

JobRecord run_local_job(Workload w, const Scale& s, long long units,
                        std::uint64_t seed, int jobs,
                        const std::string& export_dir) {
  JobRecord rec;
  rec.seed = seed;
  const double t0 = now_s();
  switch (w) {
    case Workload::Rare: {
      const mcan::RareResult res = mcan::run_campaign(rare_config(units, seed, jobs));
      rec.engine_s = now_s() - t0;
      rec.units = res.imo.trials();
      rec.digest = rare_digest(res);
      break;
    }
    case Workload::Fuzz: {
      const mcan::FuzzConfig cfg =
          fuzz_config(static_cast<std::uint64_t>(units), seed, jobs);
      const mcan::FuzzResult res = mcan::run_fuzz(cfg);
      rec.engine_s = now_s() - t0;
      const std::vector<mcan::TriagedFinding> triaged =
          export_dir.empty()
              ? mcan::triage_findings(res.findings)
              : mcan::export_findings(
                    res.findings, export_dir,
                    "MajorCAN_5, seed " + std::to_string(seed) + ", " +
                        std::to_string(res.stats.execs) + " execs");
      std::vector<std::string> names;
      for (const mcan::TriagedFinding& t : triaged) {
        names.push_back(mcan::finding_file_name(t));
      }
      rec.units = static_cast<long long>(res.stats.execs);
      rec.digest = fuzz_digest(res.stats, seed, std::move(names));
      break;
    }
    case Workload::Check: {
      std::vector<mcan::ModelCheckResult> sweeps;
      for (const mcan::ModelCheckConfig& cfg : check_sweeps(s, jobs)) {
        sweeps.push_back(mcan::run_model_check(cfg));
        rec.units += sweeps.back().cases;
      }
      rec.engine_s = now_s() - t0;
      rec.digest = check_digest(sweeps);
      break;
    }
    case Workload::Served:
      throw std::logic_error("served_mix has no local job");
  }
  rec.wall_s = now_s() - t0;
  if (!export_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(export_dir, ec);
  }
  return rec;
}

namespace {

Json record_json(const JobRecord& rec) {
  Json j = Json::object();
  j.set("seed", Json(static_cast<long long>(rec.seed)));
  j.set("units", Json(rec.units));
  j.set("engine_s", Json(rec.engine_s));
  j.set("wall_s", Json(rec.wall_s));
  j.set("peak_mb", Json(rec.peak_mb));
  j.set("digest", Json(rec.digest));
  return j;
}

std::vector<std::string> child_argv(const RunOptions& opt, bool setup_only) {
  std::vector<std::string> argv = {
      opt.self_exe,      "--child",       workload_name(opt.workload),
      "--seed",          std::to_string(opt.seed),
      "--seconds",       num(opt.seconds),
      "--scale",         opt.scale->name,
      "--work-dir",      opt.work_dir};
  if (setup_only) argv.push_back("--setup-only");
  return argv;
}

/// The untimed reference check of a local run.  Default: a 10% slice of
/// job 0 on both kernels (check: job 0 in full on ref).  --verify-ref:
/// every job rerun in full on ref.
void verify_against_ref(const RunOptions& opt,
                        const std::vector<JobRecord>& jobs, RunResult& r) {
  const Workload w = opt.workload;
  const long long units = job_units(w, *opt.scale);
  const auto run_on = [&](mcan::KernelKind k, long long n, std::uint64_t seed) {
    mcan::set_default_kernel(k);
    return run_local_job(w, *opt.scale, n, seed, opt.jobs, "").digest;
  };
  if (opt.verify_ref) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (run_on(mcan::KernelKind::Ref, units, jobs[i].seed) != jobs[i].digest) {
        r.fail("job " + std::to_string(i) + " (seed " +
               std::to_string(jobs[i].seed) + ") differs from the ref kernel");
      }
    }
    r.detail.set("verified", Json("all jobs on ref"));
    return;
  }
  if (jobs.empty()) return;
  if (w == Workload::Check) {
    // Every check job is the same sweeps, cheap enough to rerun in full.
    if (run_on(mcan::KernelKind::Ref, units, 0) != jobs[0].digest) {
      r.fail("check counts differ from the ref kernel");
    }
  } else {
    const long long slice = std::max(1LL, units / 10);
    const std::string ref = run_on(mcan::KernelKind::Ref, slice, jobs[0].seed);
    const std::string fast = run_on(mcan::KernelKind::Fast, slice, jobs[0].seed);
    if (ref != fast) {
      r.fail("10% slice of job 0 (seed " + std::to_string(jobs[0].seed) +
             ") differs between fast and ref");
    }
  }
  r.detail.set("verified", Json("10% slice on ref"));
}

}  // namespace

int local_child_main(const RunOptions& opt, bool setup_only) {
  mcan::set_default_kernel(mcan::KernelKind::Fast);
  const Workload w = opt.workload;
  const long long units = job_units(w, *opt.scale);
  const std::uint64_t seed0 = job_seed(w, opt.seed, 0);
  if (setup_only) {
    // "Engine object built": what each driver constructs before its loop.
    switch (w) {
      case Workload::Rare: {
        const mcan::RareCampaign c(rare_config(units, seed0, opt.jobs));
        break;
      }
      case Workload::Fuzz: {
        const mcan::FuzzCampaign c(
            fuzz_config(static_cast<std::uint64_t>(units), seed0, opt.jobs));
        break;
      }
      case Workload::Check: {
        const mcan::ModelCheckConfig c = check_config(1, opt.jobs);
        c.validate();
        (void)mcan::model_check_eof_start(c.base.protocol);
        break;
      }
      case Workload::Served: return 2;
    }
    std::printf("%lld\n", static_cast<long long>(now_ns()));
    return 0;
  }
  const double t_start = now_s();
  double total_wall = 0;
  for (std::uint64_t j = 0; !g_stop.load(); ++j) {
    // Start a job only if it should end inside the window (always one).
    if (j > 0 && now_s() - t_start + total_wall / static_cast<double>(j) >
                     opt.seconds) {
      break;
    }
    reset_vmhwm();
    JobRecord rec = run_local_job(
        w, *opt.scale, units, job_seed(w, opt.seed, j), opt.jobs,
        w == Workload::Fuzz ? opt.work_dir + "/export-" + std::to_string(j)
                            : "");
    rec.peak_mb = vmhwm_mb();
    total_wall += rec.wall_s;
    std::printf("%s\n", record_json(rec).dump().c_str());
    std::fflush(stdout);
  }
  return 0;
}

namespace {

/// Spawn `argv` `reps` times, each reporting its ready time on stdout;
/// the median spawn-to-ready seconds (0 and a failure on error).
double median_setup_s(const std::vector<std::string>& argv, int reps,
                      RunResult& r) {
  std::vector<double> samples;
  for (int i = 0; i < reps && !g_stop.load(); ++i) {
    Child c;
    std::string err;
    std::string out;
    int status = 0;
    const std::int64_t t_spawn = now_ns();
    if (!c.start(argv, true, "", err) || !c.read_all(out, now_s() + 60) ||
        !c.wait(now_s() + 10, status) || status != 0) {
      r.fail("setup child failed: " + (err.empty() ? out : err));
      return 0;
    }
    samples.push_back(static_cast<double>(std::atoll(out.c_str()) - t_spawn) *
                      1e-9);
  }
  r.detail.set("setup_samples", Json(static_cast<long long>(samples.size())));
  return median(samples);
}

}  // namespace

RunResult run_local(const RunOptions& opt) {
  RunResult r;
  r.workload = opt.workload;
  r.seed = opt.seed;
  const double setup_s =
      median_setup_s(child_argv(opt, true), kSetupSamples, r);

  Child child;
  std::string err;
  std::string out;
  int status = 0;
  const double deadline = now_s() + std::max(60.0, 4 * opt.seconds);
  if (!child.start(child_argv(opt, false), true, "", err)) {
    r.abort_run("cannot start the workload process: " + err);
    return r;
  }
  if (!child.read_all(out, deadline) || !child.wait(deadline, status)) {
    r.abort_run(g_stop.load()
                    ? "interrupted"
                    : "workload process did not finish within its deadline");
    return r;
  }
  if (status != 0) {
    r.abort_run("workload process exited with status " + std::to_string(status));
  }

  std::vector<JobRecord> jobs;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    Json j;
    std::string perr;
    const Json* digest = nullptr;
    if (!Json::parse(line, j, perr) || (digest = j.find("digest")) == nullptr) {
      r.abort_run("unparsable record from the workload process: " + line);
      continue;
    }
    const auto field = [&](const char* key) {
      const Json* v = j.find(key);
      return v != nullptr ? v->as_double() : 0.0;
    };
    JobRecord rec;
    rec.seed = static_cast<std::uint64_t>(field("seed"));
    rec.units = static_cast<long long>(field("units"));
    rec.engine_s = field("engine_s");
    rec.wall_s = field("wall_s");
    rec.peak_mb = field("peak_mb");
    rec.digest = digest->as_string();
    jobs.push_back(std::move(rec));
  }
  r.attempted = static_cast<long long>(jobs.size());
  if (jobs.empty()) r.abort_run("the workload process completed no job");

  verify_against_ref(opt, jobs, r);
  if (opt.seed == kDefaultSeed && !jobs.empty()) {
    const std::string want = expected_digest(opt, workload_name(opt.workload));
    if (want.empty()) {
      r.detail.set("golden", Json("none committed"));
    } else if (want != jobs[0].digest) {
      r.fail("job 0 differs from the committed golden digest");
    } else {
      r.detail.set("golden", Json("match"));
    }
  }

  // Medians over the run's jobs, so a burst of interference from outside
  // the benchmark moves a few samples, not the result.
  long long units = 0;
  std::vector<double> rates;
  std::vector<double> walls;
  std::vector<double> peaks;
  for (const JobRecord& rec : jobs) {
    units += rec.units;
    if (rec.engine_s > 0) {
      rates.push_back(static_cast<double>(rec.units) / rec.engine_s);
    }
    walls.push_back(rec.wall_s);
    peaks.push_back(rec.peak_mb);
  }
  r.add("units_per_s", median(rates), "1/s");
  r.add("latency_p50_ms", median(walls) * 1e3, "ms");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", median(peaks), "MB");
  r.detail.set("jobs", Json(static_cast<long long>(jobs.size())));
  r.detail.set("units", Json(units));
  r.detail.set("latency_p90_ms", Json(quantile(walls, 0.9) * 1e3));
  return r;
}

}  // namespace e2e
