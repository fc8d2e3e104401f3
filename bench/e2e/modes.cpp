#include "modes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "local.hpp"
#include "pool.hpp"
#include "served.hpp"
#include "sim/kernel.hpp"
#include "util/text.hpp"

namespace e2e {

using mcan::Json;

namespace {

// Smoke windows: one small job per local workload, a short served session.
constexpr double kSmokeLocalS = 0.2;
constexpr double kSmokeServedS = 1.5;

double smoke_seconds(Workload w) {
  return w == Workload::Served ? kSmokeServedS : kSmokeLocalS;
}

/// Served open-loop jobs of the default seed, run locally (ref kernel,
/// spread over `threads` — each job itself is single-threaded).
std::string served_golden(const Scale& s, double seconds, int threads) {
  const std::vector<double> offsets =
      open_schedule(s, kDefaultSeed, seconds * kServedOpenFrac);
  std::vector<ServedJob> jobs(offsets.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].spec = served_spec(kDefaultSeed, "open", i);
  }
  Pool pool(threads);
  pool.run(
      jobs.size(),
      [&](std::size_t i) { jobs[i].result = local_result(jobs[i].spec); },
      "served.golden");
  return served_digest(jobs);
}

}  // namespace

RunResult run_workload(const RunOptions& opt) {
  try {
    if (opt.trace) return run_traced(opt);
    return opt.workload == Workload::Served ? run_served(opt) : run_local(opt);
  } catch (const std::exception& e) {
    RunResult r;
    r.workload = opt.workload;
    r.seed = opt.seed;
    r.traced = opt.trace;
    r.abort_run(std::string("aborted: ") + e.what());
    return r;
  }
}

std::string combined_line(const std::vector<RunResult>& rs) {
  RunResult all;
  for (const RunResult& r : rs) {
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.errors.insert(all.errors.end(), r.errors.begin(), r.errors.end());
    for (const Metric& m : r.metrics) {
      all.add(std::string(workload_name(r.workload)) + "." + m.name, m.value,
              m.unit);
    }
  }
  return result_line(all);
}

int smoke_main(const RunOptions& opt) {
  Declared declared;
  std::string error;
  if (!load_declared(declared, error)) {
    std::fprintf(stderr, "bench_e2e --smoke: %s\n", error.c_str());
    return 1;
  }
  const std::vector<DeclaredMetric>& e2e_metrics = declared.e2e;
  const std::vector<DeclaredMetric>& layer_metrics = declared.layers;
  const double t0 = now_s();
  int problems = 0;
  // The workload names and the window length live both in bench_e2e and in
  // BENCHMARK.json; the two must agree.
  std::vector<std::string> names;
  for (const Workload w : kWorkloads) names.emplace_back(workload_name(w));
  if (names != declared.workloads) {
    std::printf("SMOKE FAIL: BENCHMARK.json's workloads differ from bench_e2e's\n");
    ++problems;
  }
  if (declared.run_seconds != kDefaultSeconds) {
    std::printf("SMOKE FAIL: BENCHMARK.json's run_seconds (%g) is not the "
                "default --seconds (%g)\n",
                declared.run_seconds, kDefaultSeconds);
    ++problems;
  }
  for (const Workload w : kWorkloads) {
    for (const bool traced : {false, true}) {
      RunOptions one = opt;
      one.workload = w;
      one.seed = kDefaultSeed;
      one.scale = &smoke_scale();
      one.seconds = smoke_seconds(w);
      one.trace = traced;
      one.trace_out = opt.work_dir + "/trace-" + workload_name(w) + ".json";
      const RunResult r = run_workload(one);
      std::fputs(result_table(r).c_str(), stdout);
      const auto complain = [&](const std::string& what) {
        std::printf("SMOKE FAIL %s%s: %s\n", workload_name(w),
                    traced ? " (traced)" : "", what.c_str());
        ++problems;
      };
      if (!r.correct()) complain("run is not correct");
      for (const DeclaredMetric& d : traced ? layer_metrics : e2e_metrics) {
        const auto it =
            std::find_if(r.metrics.begin(), r.metrics.end(),
                         [&](const Metric& m) { return m.name == d.name; });
        if (it == r.metrics.end()) {
          complain("metric " + d.name + " missing");
        } else if (!std::isfinite(it->value)) {
          complain("metric " + d.name + " is not finite");
        } else if (it->unit.empty() || it->unit != d.unit) {
          complain("metric " + d.name + " has unit '" + it->unit +
                   "', BENCHMARK.json says '" + d.unit + "'");
        }
      }
      if (r.metrics.size() !=
          (traced ? layer_metrics : e2e_metrics).size()) {
        complain("reports metrics BENCHMARK.json does not declare");
      }
      const Json* golden = r.detail.find("golden");
      if (!traced && (golden == nullptr || golden->as_string() != "match")) {
        complain("smoke digest not matched (" +
                 (golden != nullptr ? golden->as_string() : "not checked") +
                 ")");
      }
    }
  }
  std::printf("smoke: %d problem(s) in %.1f s\n", problems, now_s() - t0);
  return problems == 0 ? 0 : 1;
}

int regen_expected(const RunOptions& opt) {
  mcan::set_default_kernel(mcan::KernelKind::Ref);
  std::string text = "{\n  \"kernel\": \"ref\",\n  \"jobs\": 1,\n  \"seed\": " +
                     std::to_string(kDefaultSeed) + ",\n";
  const std::pair<const Scale*, double> scales[] = {
      {&full_scale(), kDefaultSeconds}, {&smoke_scale(), kSmokeServedS}};
  for (std::size_t si = 0; si < 2; ++si) {
    const Scale& s = *scales[si].first;
    std::vector<std::pair<std::string, std::string>> entries;
    for (const Workload w : {Workload::Rare, Workload::Fuzz, Workload::Check}) {
      const double t0 = now_s();
      entries.emplace_back(workload_name(w),
                           run_local_job(w, s, job_units(w, s),
                                         job_seed(w, kDefaultSeed, 0), 1, "")
                               .digest);
      std::fprintf(stderr, "regen %s %s: %.1f s\n", s.name.c_str(),
                   workload_name(w), now_s() - t0);
    }
    const double t0 = now_s();
    entries.emplace_back("served_mix@" + num(scales[si].second),
                         served_golden(s, scales[si].second, opt.jobs));
    std::fprintf(stderr, "regen %s served_mix: %.1f s\n", s.name.c_str(),
                 now_s() - t0);
    text += "  \"" + s.name + "\": {\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      text += "    \"" + entries[i].first + "\": \"" +
              mcan::json_escape(entries[i].second) + "\"" +
              (i + 1 < entries.size() ? ",\n" : "\n");
    }
    text += si == 0 ? "  },\n" : "  }\n";
  }
  text += "}\n";
  if (!mcan::write_text_file(opt.expected_path, text)) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                 opt.expected_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", opt.expected_path.c_str());
  return 0;
}

}  // namespace e2e
