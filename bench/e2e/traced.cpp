// The traced run.  Three parts, all under spans opened by this file:
//
//   1. the workload itself for --seconds, driven through the round-stepped
//      public objects (RareCampaign, FuzzCampaign; run_model_check per k;
//      the live daemon for served_mix) on this benchmark's own pool;
//   2. one probe-sized job of every engine the workload does not own, so
//      each traced run reports every per-layer metric;
//   3. fixed samples of single layer functions: Simulator::step loops,
//      make_trial_bus, run_any_scenario with and without the invariant
//      rules, the oracle, the .scn writer and parser, minimize_finding,
//      run_flip_case, and the serve layer's checkpoint, journal and JSON.
//
// The per-layer metrics are computed afterwards from the spans: busy time,
// self time, counts and ratios.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>

#include "common.hpp"
#include "fault/random_faults.hpp"
#include "fuzz/triage.hpp"
#include "local.hpp"
#include "modes.hpp"
#include "pool.hpp"
#include "rare/trial.hpp"
#include "rsm/runner.hpp"
#include "serve/backend.hpp"
#include "serve/journal.hpp"
#include "served.hpp"
#include "sim/kernel.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace e2e {

using mcan::Json;

namespace {

constexpr const char* kCheckSpan[] = {"",
                                      "scenario.check.k1",
                                      "scenario.check.k2",
                                      "scenario.check.k3",
                                      "scenario.check.k4",
                                      "scenario.check.k5"};
constexpr int kMaxK = 5;

/// Work a drive did, measured outside the spans.
struct Drive {
  long long units = 0;
  double engine_s = 0;
  std::vector<double> job_s;         ///< check jobs: engine seconds each
  std::vector<std::string> digests;  ///< one per job
};

/// What the layer-function samples feed on, captured from the drives.
struct Captured {
  std::optional<mcan::ProbePlan> rare_plan;
  std::size_t rare_checkpoint_bytes = 0;
  std::vector<mcan::FuzzFinding> findings;    ///< first fuzz job's raw findings
  std::vector<mcan::ScenarioSpec> corpus;     ///< and its corpus
  long long findings_raw = 0;
  long long reproducers = 0;
  std::vector<mcan::ModelCheckResult> check;  ///< a check job, per k
  std::optional<ServedSession> served;
};

/// Back-to-back jobs: start one only if it should end inside the window.
template <class Job>
void repeat_jobs(double window, Job&& job) {
  const double t0 = now_s();
  double total = 0;
  for (int j = 0; !g_stop.load(); ++j) {
    if (j > 0 && now_s() - t0 + total / j > window) break;
    const double a = now_s();
    job(static_cast<std::uint64_t>(j));
    total += now_s() - a;
  }
}

void rare_job(Pool& pool, long long trials, std::uint64_t seed, Drive& d,
              Captured& cap) {
  const Span job("rare.job");
  const double t0 = now_s();
  std::optional<mcan::RareCampaign> c;
  {
    const Span s("rare.setup");
    c.emplace(rare_config(trials, seed, pool.size()));
  }
  for (;;) {
    std::size_t n = 0;
    {
      const Span s("rare.plan");
      n = c->plan_round();
    }
    if (n == 0) break;
    {
      const Span s("rare.execute");
      pool.run(n, [&](std::size_t i) { c->execute_slot(i); }, "rare.trial");
    }
    const Span s("rare.merge");
    c->merge_round();
  }
  d.engine_s += now_s() - t0;
  d.units += c->trials_done();
  {
    const Span s("rare.checkpoint");
    cap.rare_checkpoint_bytes = c->checkpoint_line().size();
  }
  d.digests.push_back(rare_digest(c->result()));
  if (!cap.rare_plan) cap.rare_plan = c->probe_plan();
}

void fuzz_job(Pool& pool, std::uint64_t execs, std::uint64_t seed,
              const std::string& export_dir, Drive& d, Captured& cap) {
  const Span job("fuzz.job");
  const double t0 = now_s();
  std::optional<mcan::FuzzCampaign> c;
  {
    const Span s("fuzz.setup");
    c.emplace(fuzz_config(execs, seed, pool.size()));
  }
  for (;;) {
    std::size_t n = 0;
    {
      const Span s("fuzz.plan");
      n = c->plan_round();
    }
    if (n == 0) break;
    {
      const Span s("fuzz.execute");
      pool.run(n, [&](std::size_t i) { c->execute_slot(i); }, "fuzz.exec");
    }
    const Span s("fuzz.merge");
    c->merge_round();
  }
  mcan::FuzzResult res;
  {
    const Span s("fuzz.take_result");
    res = c->take_result();
  }
  d.engine_s += now_s() - t0;
  d.units += static_cast<long long>(res.stats.execs);
  std::vector<mcan::TriagedFinding> triaged;
  {
    const Span s("fuzz.triage");
    triaged = mcan::triage_findings(res.findings);
  }
  std::vector<std::string> names;
  {
    // export_findings' write loop, timed apart from its triage.  A copy of
    // the loop in src/fuzz/triage.cpp: keep the two in step.
    const Span s("fuzz.export");
    const std::string campaign = "MajorCAN_5, seed " + std::to_string(seed) +
                                 ", " + std::to_string(res.stats.execs) +
                                 " execs";
    if (!triaged.empty()) std::filesystem::create_directories(export_dir);
    for (const mcan::TriagedFinding& t : triaged) {
      names.push_back(mcan::finding_file_name(t));
      std::ofstream out(std::filesystem::path(export_dir) / names.back());
      out << mcan::export_finding(t, campaign);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(export_dir, ec);
  d.digests.push_back(fuzz_digest(res.stats, seed, std::move(names)));
  cap.findings_raw += static_cast<long long>(res.findings.size());
  cap.reproducers += static_cast<long long>(triaged.size());
  if (cap.findings.empty() && cap.corpus.empty()) {
    cap.findings = res.findings;
    for (const mcan::CorpusEntry& e : res.corpus.entries()) {
      cap.corpus.push_back(e.spec);
    }
  }
}

/// The check job's sweeps, one span per k.
void check_job(const Scale& sc, int jobs, Drive& d,
               std::vector<mcan::ModelCheckResult>& sweeps) {
  const Span job("check.job");
  const double t0 = now_s();
  sweeps.clear();
  for (const mcan::ModelCheckConfig& cfg : check_sweeps(sc, jobs)) {
    const Span s(kCheckSpan[cfg.base.errors]);
    sweeps.push_back(mcan::run_model_check(cfg));
    d.units += sweeps.back().cases;
  }
  d.job_s.push_back(now_s() - t0);
  d.engine_s += d.job_s.back();
  d.digests.push_back(check_digest(sweeps));
}

// --- layer-function samples -----------------------------------------------

void sim_probe(const char* span, const mcan::ProtocolParams& p, int nodes,
               double ber, long long steps, std::uint64_t seed) {
  mcan::Network net(nodes, p);
  mcan::RandomFaults inj(ber, mcan::Rng(seed));
  if (ber > 0) net.set_injector(inj);
  int next = 0;
  const Span s(span);
  // Node 0 always has a frame in flight, checked between bits: the
  // campaign engines' step-inspect-step access pattern.
  for (long long i = 0; i < steps; ++i) {
    if (net.node(0).pending_tx() < 2) {
      net.node(0).enqueue(mcan::Frame::make_blank(
          0x100 + static_cast<std::uint32_t>(next++ % 8), 8));
    }
    net.sim().step();
  }
}

void sim_probes(const Scale& sc, std::uint64_t seed) {
  const Span s("bench.probe.sim");
  sim_probe("sim.steps.can32", mcan::ProtocolParams::standard_can(), 32, 0,
            sc.sim_steps, seed);
  sim_probe("sim.steps.can32_noisy", mcan::ProtocolParams::standard_can(), 32,
            1e-4, sc.sim_steps, seed);
  sim_probe("sim.steps.major5_n3", mcan::ProtocolParams::major_can(5), 3, 1e-4,
            sc.sim_steps, seed);
}

void clone_probe(const Scale& sc, const Captured& cap) {
  if (!cap.rare_plan) return;
  const Span s("bench.probe.clone");
  const mcan::PrefixState prefix(*cap.rare_plan);
  for (int i = 0; i < sc.clone_reps; ++i) {
    std::unique_ptr<mcan::Network> net;
    const Span c("rare.clone");
    net = mcan::make_trial_bus(*cap.rare_plan, &prefix);
  }
}

/// A fixed pick of `n` items out of `size` (cycling when there are fewer),
/// offset by the seed.
std::vector<std::size_t> sample(std::size_t size, int n, std::uint64_t seed) {
  std::vector<std::size_t> idx;
  if (size == 0) return idx;
  const std::size_t stride = std::max<std::size_t>(1, size / static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    idx.push_back((seed + static_cast<std::uint64_t>(i) * stride) % size);
  }
  return idx;
}

void replay_probe(const Scale& sc, const Captured& cap, std::uint64_t seed) {
  std::vector<const mcan::ScenarioSpec*> pool;
  for (const mcan::ScenarioSpec& s : cap.corpus) pool.push_back(&s);
  for (const mcan::FuzzFinding& f : cap.findings) pool.push_back(&f.spec);
  const Span s("bench.probe.replay");
  mcan::InvariantConfig off;
  off.wired_and = off.stuff_conformance = off.flag_legality = off.end_game =
      off.counter_transitions = off.reconvergence = false;
  for (const std::size_t i : sample(pool.size(), sc.replay_specs, seed)) {
    const mcan::ScenarioSpec& spec = *pool[i];
    {
      const Span a("scenario.run_rules_off");
      (void)mcan::run_any_scenario(spec, off);
    }
    {
      const Span a("scenario.run_rules_on");
      (void)mcan::run_any_scenario(spec);
    }
    {
      const Span a("fuzz.oracle_case");
      (void)mcan::run_fuzz_case(spec);
    }
    std::string text;
    {
      const Span a("scenario.dsl_write");
      text = mcan::write_scenario(spec);
    }
    const Span a("scenario.dsl_parse");
    (void)mcan::parse_scenario(text);
  }
}

void minimize_probe(const Scale& sc, const Captured& cap, std::uint64_t seed) {
  const Span s("bench.probe.minimize");
  for (const std::size_t i :
       sample(cap.findings.size(), sc.minimize_findings, seed)) {
    const mcan::FuzzFinding& f = cap.findings[i];
    const Span m("fuzz.minimize");
    (void)mcan::minimize_finding(f.spec, f.verdict.primary());
  }
}

void flip_case_probe(const Scale& sc, std::uint64_t seed) {
  const mcan::ModelCheckConfig cfg = check_config(kMaxK, 1);
  const int lo = cfg.base.win_lo_rel;
  const int hi = cfg.base.window_hi();
  const int sites = cfg.base.n_nodes * (hi - lo + 1);
  mcan::Rng rng(derive_seed(seed, "flip_cases", 0));
  const Span s("bench.probe.flip_cases");
  for (int c = 0; c < sc.flip_cases; ++c) {
    // A uniformly drawn k=5 pattern: five distinct (node, position) sites.
    std::vector<int> picked;
    while (static_cast<int>(picked.size()) < kMaxK) {
      const int site =
          static_cast<int>(rng.next_below(static_cast<std::uint32_t>(sites)));
      if (std::find(picked.begin(), picked.end(), site) == picked.end()) {
        picked.push_back(site);
      }
    }
    std::vector<std::pair<mcan::NodeId, int>> flips;
    for (const int site : picked) {
      flips.emplace_back(static_cast<mcan::NodeId>(site / (hi - lo + 1)),
                         lo + site % (hi - lo + 1));
    }
    const Span f("scenario.flip_case");
    (void)mcan::run_flip_case(cfg.base.protocol, cfg.base.n_nodes, flips);
  }
}

/// The serve layer in process: backend checkpoints, journal appends and
/// JSON on captured payloads.
void serve_inproc_probe(const RunOptions& opt, std::map<std::string, double>& v) {
  const Scale& sc = *opt.scale;
  const Span s("bench.probe.serve_inproc");
  // Payloads the daemon handles: snapshot lines, result responses, submits.
  std::vector<std::string> payloads;
  std::string fuzz_snapshot;
  for (const bool fuzz : {true, false}) {
    const Json spec = served_spec(opt.seed, "inproc", fuzz ? 0 : 1);
    const std::unique_ptr<mcan::CampaignBackend> b = run_backend(spec);
    std::string snap;
    for (int i = 0; i < sc.io_reps; ++i) {
      const Span c(fuzz ? "serve.checkpoint.fuzz" : "serve.checkpoint.rare");
      snap = b->checkpoint();
    }
    v[fuzz ? "serve.checkpoint_bytes.fuzz" : "serve.checkpoint_bytes.rare"] =
        static_cast<double>(snap.size());
    if (fuzz) fuzz_snapshot = snap;
    payloads.push_back(snap);
    Json res = mcan::ok_response();
    res.set("state", Json("done"));
    res.set("result", Json(b->result_json()));
    payloads.push_back(res.dump());
    Json req = mcan::make_request("submit");
    req.set("spec", spec);
    payloads.push_back(req.dump());
  }
  mcan::JobJournal journal(opt.work_dir + "/journal-probe");
  const std::string spec_text = served_spec(opt.seed, "inproc", 0).dump();
  if (!journal.open(1, 0, spec_text, spec_text)) {
    throw std::runtime_error("serve probe: cannot open a journal in " +
                             journal.dir());
  }
  for (int i = 0; i < sc.io_reps; ++i) {
    const Span j("serve.journal_append");
    (void)journal.append_snapshot(1, static_cast<std::uint64_t>(i),
                                  fuzz_snapshot);
  }
  for (int i = 0; i < sc.io_reps; ++i) {
    for (const std::string& p : payloads) {
      Json parsed;
      std::string err;
      {
        const Span j("serve.json_parse");
        (void)Json::parse(p, parsed, err);
      }
      const Span j("serve.json_dump");
      (void)parsed.dump();
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(journal.dir(), ec);
}

// --- metrics ----------------------------------------------------------------

double or0(double v) { return std::isfinite(v) ? v : 0; }

double us_p(const SpanIndex& ix, const char* name, double q) {
  return or0(quantile(ix.seconds(name), q) * 1e6);
}

/// Per-job medians of an engine's round-driver metrics.
void engine_metrics(const SpanIndex& ix, const char* prefix, const char* unit_span,
                    const char* unit_metric, int threads,
                    std::map<std::string, double>& v) {
  const std::string p(prefix);
  std::vector<double> busy, serial, idle;
  for (const SpanRec* job : ix.named((p + ".job").c_str())) {
    const double b = ix.total_s(unit_span, job->id);
    busy.push_back(b);
    serial.push_back(ix.total_s((p + ".plan").c_str(), job->id) +
                     ix.total_s((p + ".merge").c_str(), job->id));
    const double exec = ix.total_s((p + ".execute").c_str(), job->id);
    idle.push_back(exec > 0 ? 1 - b / (threads * exec) : 0);
  }
  v[p + ".execute_busy_s"] = or0(median(busy));
  v[p + ".serial_s"] = or0(median(serial));
  v[p + ".worker_idle_frac"] = or0(median(idle));
  v[p + "." + unit_metric + "_us_p50"] = us_p(ix, unit_span, 0.5);
  v[p + "." + unit_metric + "_us_p99"] = us_p(ix, unit_span, 0.99);
}

/// Per-spec differences of two span series recorded pairwise.
double paired_diff_us_p50(const SpanIndex& ix, const char* with,
                          const char* without) {
  const std::vector<double> a = ix.seconds(with);
  const std::vector<double> b = ix.seconds(without);
  std::vector<double> d;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    d.push_back(a[i] - b[i]);
  }
  return or0(median(d) * 1e6);
}

void served_metrics(const SpanIndex& ix, const ServedSession& s,
                    std::map<std::string, double>& v) {
  const auto ms_p = [&](const char* name, double q) {
    return or0(quantile(ix.seconds(name), q) * 1e3);
  };
  v["serve.submit_rtt_ms_p50"] = ms_p("serve.submit", 0.5);
  v["serve.status_rtt_ms_p50"] = ms_p("serve.status", 0.5);
  v["serve.result_rtt_ms_p50"] = ms_p("serve.result", 0.5);
  std::vector<double> bytes, wait;
  std::map<std::string, std::vector<double>> run;
  for (const ServedJob& j : s.jobs) {
    if (!j.ok) continue;
    bytes.push_back(static_cast<double>(j.result.size()));
    if (j.first_run > 0) {
      wait.push_back((j.first_run - j.submit_end) * 1e3);
      run[j.kind].push_back((j.done_status - j.first_run) * 1e3);
    }
  }
  v["serve.result_bytes_p50"] = or0(median(bytes));
  // The open loop's tail: too unsteady in a 10 s run to carry a bound, so
  // it is reported here rather than end to end.
  const std::vector<double> lat = open_latencies(s);
  v["serve.latency_p90_ms"] = or0(quantile(lat, 0.9) * 1e3);
  v["serve.latency_p99_ms"] = or0(quantile(lat, 0.99) * 1e3);
  v["serve.queue_wait_ms_p50"] = or0(quantile(wait, 0.5));
  v["serve.queue_wait_ms_p99"] = or0(quantile(wait, 0.99));
  for (const char* kind : {"fuzz", "rare", "check", "attack"}) {
    v[std::string("serve.run_ms_p50.") + kind] = or0(median(run[kind]));
  }
  const auto stat = [&](const char* group, const char* key) {
    const Json* g = s.stats.find(group);
    const Json* x = g != nullptr ? g->find(key) : nullptr;
    return x != nullptr ? x->as_double() : 0.0;
  };
  v["serve.shards_completed"] = stat("shards", "completed");
  v["serve.shards_requeued"] = stat("shards", "requeued");
  v["serve.stale_completions"] = stat("shards", "stale_completions");
  v["serve.units_per_s"] = stat("throughput", "units_per_s");
  v["bench.generator_lag_ms_p99"] = or0(quantile(s.lags_s, 0.99) * 1e3);
}

/// Share of the workload span covered by the driving thread's layer spans
/// (grandchildren of the workload span: job -> layer calls).
double driver_cover(const SpanIndex& ix, const SpanRec& w) {
  double covered = 0;
  for (const SpanRec& s : ix.spans()) {
    if (s.parent == w.id && s.tid == w.tid) covered += ix.covered_by_children_s(s);
  }
  return w.seconds() > 0 ? covered / w.seconds() : 0;
}

/// The per-layer metrics, in BENCHMARK.json's order, with units.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> u = {
      {"sim.bits_per_s.can32", "1/s"},
      {"sim.bits_per_s.can32_noisy", "1/s"},
      {"sim.bits_per_s.major5_n3", "1/s"},
      {"sim.fast_over_ref", "ratio"},
      {"rare.setup_s", "s"},
      {"rare.execute_busy_s", "s"},
      {"rare.trial_us_p50", "us"},
      {"rare.trial_us_p99", "us"},
      {"rare.clone_us_p50", "us"},
      {"rare.serial_s", "s"},
      {"rare.worker_idle_frac", "frac"},
      {"rare.checkpoint_us", "us"},
      {"rare.checkpoint_bytes", "bytes"},
      {"fuzz.execute_busy_s", "s"},
      {"fuzz.exec_us_p50", "us"},
      {"fuzz.exec_us_p99", "us"},
      {"fuzz.serial_s", "s"},
      {"fuzz.worker_idle_frac", "frac"},
      {"fuzz.oracle_us_p50", "us"},
      {"fuzz.triage_s", "s"},
      {"fuzz.export_s", "s"},
      {"fuzz.minimize_us_p50", "us"},
      {"fuzz.minimize_us_p99", "us"},
      {"fuzz.findings_raw", "count"},
      {"fuzz.reproducers", "count"},
      {"fuzz.triage_keep_frac", "frac"},
      {"scenario.run_us_p50", "us"},
      {"analysis.invariant_us_p50", "us"},
      {"scenario.dsl_write_us_p50", "us"},
      {"scenario.dsl_parse_us_p50", "us"},
      {"scenario.check_s.k1", "s"},
      {"scenario.check_s.k2", "s"},
      {"scenario.check_s.k3", "s"},
      {"scenario.check_s.k4", "s"},
      {"scenario.check_s.k5", "s"},
      {"scenario.check_simulated_frac", "frac"},
      {"scenario.check_memo_hit_frac", "frac"},
      {"scenario.check_symmetry_skip_frac", "frac"},
      {"scenario.check_distinct_tails", "count"},
      {"scenario.check_case_us_p50", "us"},
      {"serve.submit_rtt_ms_p50", "ms"},
      {"serve.status_rtt_ms_p50", "ms"},
      {"serve.result_rtt_ms_p50", "ms"},
      {"serve.result_bytes_p50", "bytes"},
      {"serve.latency_p90_ms", "ms"},
      {"serve.latency_p99_ms", "ms"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.run_ms_p50.fuzz", "ms"},
      {"serve.run_ms_p50.rare", "ms"},
      {"serve.run_ms_p50.check", "ms"},
      {"serve.run_ms_p50.attack", "ms"},
      {"serve.shards_completed", "count"},
      {"serve.shards_requeued", "count"},
      {"serve.stale_completions", "count"},
      {"serve.units_per_s", "1/s"},
      {"serve.checkpoint_us.fuzz", "us"},
      {"serve.checkpoint_us.rare", "us"},
      {"serve.checkpoint_bytes.fuzz", "bytes"},
      {"serve.checkpoint_bytes.rare", "bytes"},
      {"serve.journal_append_us_p50", "us"},
      {"serve.json_parse_us_p50", "us"},
      {"serve.json_dump_us_p50", "us"},
      {"bench.generator_lag_ms_p99", "ms"},
      {"bench.traced_units_per_s", "1/s"},
      {"bench.trace_overhead_frac", "frac"},
      {"bench.span_cover_frac", "frac"},
  };
  return u;
}

}  // namespace

RunResult run_traced(const RunOptions& opt) {
  RunResult r;
  r.workload = opt.workload;
  r.seed = opt.seed;
  r.traced = true;
  const Scale& sc = *opt.scale;
  const Workload own = opt.workload;
  const double span_cost = trace::span_cost_s();
  trace::enable(true);
  trace::name_thread("driver");
  mcan::set_default_kernel(mcan::KernelKind::Fast);

  std::map<std::string, double> v;
  Captured cap;
  Drive drive;
  double slice_fast_s = 0;
  double slice_ref_s = 0;
  std::uint32_t workload_span = 0;
  {
    Pool pool(opt.jobs);
    const Span root("bench.traced_run");
    // 1. The workload itself.
    {
      const Span w("bench.workload");
      workload_span = w.id();
      switch (own) {
        case Workload::Rare:
          repeat_jobs(opt.seconds, [&](std::uint64_t j) {
            rare_job(pool, sc.rare_trials, job_seed(own, opt.seed, j), drive, cap);
          });
          break;
        case Workload::Fuzz:
          repeat_jobs(opt.seconds, [&](std::uint64_t j) {
            fuzz_job(pool, sc.fuzz_execs, job_seed(own, opt.seed, j),
                     opt.work_dir + "/export-" + std::to_string(j), drive, cap);
          });
          break;
        case Workload::Check:
          repeat_jobs(opt.seconds, [&](std::uint64_t) {
            check_job(sc, opt.jobs, drive, cap.check);
          });
          break;
        case Workload::Served: {
          const double open_s = opt.seconds * kServedOpenFrac;
          cap.served = drive_served(opt, open_s, opt.seconds - open_s);
          for (const ServedJob& j : cap.served->jobs) {
            if (!j.open_loop && j.ok) ++drive.units;
          }
          drive.engine_s = cap.served->closed_end - cap.served->closed_start;
          break;
        }
      }
    }
    // 2. Probe-sized jobs of the engines this workload does not own.
    Drive probe;
    if (own != Workload::Rare) {
      const Span s("bench.probe.rare");
      rare_job(pool, sc.probe_rare_trials, job_seed(Workload::Rare, opt.seed, 0),
               probe, cap);
    }
    if (own != Workload::Fuzz) {
      const Span s("bench.probe.fuzz");
      fuzz_job(pool, sc.probe_fuzz_execs, job_seed(Workload::Fuzz, opt.seed, 0),
               opt.work_dir + "/export-probe", probe, cap);
    }
    if (own != Workload::Check) {
      const Span s("bench.probe.check");
      check_job(sc, opt.jobs, probe, cap.check);
    }
    if (own != Workload::Served) {
      const Span s("bench.probe.served");
      const double open_s = sc.probe_served_s * kServedOpenFrac;
      cap.served = drive_served(opt, open_s, sc.probe_served_s - open_s);
    }
    // 3. Layer-function samples.
    sim_probes(sc, opt.seed);
    clone_probe(sc, cap);
    replay_probe(sc, cap, opt.seed);
    minimize_probe(sc, cap, opt.seed);
    flip_case_probe(sc, opt.seed);
    serve_inproc_probe(opt, v);

    // The workload's 10% slice on both kernels: fast_over_ref, and the
    // correctness check of this run.
    const Span s("bench.slice");
    if (own == Workload::Served) {
      slice_ref_s = replay_served(opt, *cap.served, mcan::KernelKind::Ref, r);
      slice_fast_s = replay_served(opt, *cap.served, mcan::KernelKind::Fast, r);
    } else if (own == Workload::Check) {
      // The whole job is cheap enough to rerun on ref.
      mcan::set_default_kernel(mcan::KernelKind::Ref);
      const JobRecord ref = run_local_job(own, sc, 0, 0, opt.jobs, "");
      slice_ref_s = ref.engine_s;
      slice_fast_s = drive.job_s.empty() ? 0 : drive.job_s[0];
      if (drive.digests.empty() || drive.digests[0] != ref.digest) {
        r.fail("check counts differ from the ref kernel");
      }
    } else {
      const long long slice = std::max(1LL, job_units(own, sc) / 10);
      const std::uint64_t seed0 = job_seed(own, opt.seed, 0);
      std::string digest[2];
      for (const mcan::KernelKind k : {mcan::KernelKind::Ref, mcan::KernelKind::Fast}) {
        mcan::set_default_kernel(k);
        const double t0 = now_s();
        digest[k == mcan::KernelKind::Fast] =
            run_local_job(own, sc, slice, seed0, opt.jobs, "").digest;
        (k == mcan::KernelKind::Ref ? slice_ref_s : slice_fast_s) = now_s() - t0;
      }
      if (digest[0] != digest[1]) {
        r.fail("10% slice of job 0 differs between fast and ref");
      }
    }
  }
  trace::enable(false);
  const SpanIndex ix(trace::collect());

  // Correctness of the traced drive itself: golden digests at the default
  // seed, failures of the served session.
  r.attempted = static_cast<long long>(drive.digests.size());
  if (own == Workload::Served) {
    r.attempted = 0;
    tally_jobs(*cap.served, r);
  } else if (opt.seed == kDefaultSeed && !drive.digests.empty()) {
    const std::string want = expected_digest(opt, workload_name(own));
    if (!want.empty() && want != drive.digests[0]) {
      r.fail("traced job 0 differs from the committed golden digest");
    }
  }

  // --- metrics from the spans ----------------------------------------------
  const auto bits_per_s = [&](const char* span) {
    const double s = ix.total_s(span);
    return s > 0 ? static_cast<double>(sc.sim_steps) / s : 0;
  };
  v["sim.bits_per_s.can32"] = bits_per_s("sim.steps.can32");
  v["sim.bits_per_s.can32_noisy"] = bits_per_s("sim.steps.can32_noisy");
  v["sim.bits_per_s.major5_n3"] = bits_per_s("sim.steps.major5_n3");
  v["sim.fast_over_ref"] = slice_fast_s > 0 ? slice_ref_s / slice_fast_s : 0;

  engine_metrics(ix, "rare", "rare.trial", "trial", opt.jobs, v);
  v["rare.setup_s"] = or0(median(ix.seconds("rare.setup")));
  v["rare.clone_us_p50"] = us_p(ix, "rare.clone", 0.5);
  v["rare.checkpoint_us"] = us_p(ix, "rare.checkpoint", 0.5);
  v["rare.checkpoint_bytes"] = static_cast<double>(cap.rare_checkpoint_bytes);

  engine_metrics(ix, "fuzz", "fuzz.exec", "exec", opt.jobs, v);
  v["fuzz.oracle_us_p50"] =
      paired_diff_us_p50(ix, "fuzz.oracle_case", "scenario.run_rules_on");
  v["fuzz.triage_s"] = or0(median(ix.seconds("fuzz.triage")));
  v["fuzz.export_s"] = or0(median(ix.seconds("fuzz.export")));
  v["fuzz.minimize_us_p50"] = us_p(ix, "fuzz.minimize", 0.5);
  v["fuzz.minimize_us_p99"] = us_p(ix, "fuzz.minimize", 0.99);
  const double jobs_fuzz = static_cast<double>(ix.named("fuzz.job").size());
  v["fuzz.findings_raw"] = static_cast<double>(cap.findings_raw) / jobs_fuzz;
  v["fuzz.reproducers"] = static_cast<double>(cap.reproducers) / jobs_fuzz;
  v["fuzz.triage_keep_frac"] =
      cap.findings_raw > 0 ? static_cast<double>(cap.reproducers) /
                                 static_cast<double>(cap.findings_raw)
                           : 0;

  v["scenario.run_us_p50"] = us_p(ix, "scenario.run_rules_off", 0.5);
  v["analysis.invariant_us_p50"] =
      paired_diff_us_p50(ix, "scenario.run_rules_on", "scenario.run_rules_off");
  v["scenario.dsl_write_us_p50"] = us_p(ix, "scenario.dsl_write", 0.5);
  v["scenario.dsl_parse_us_p50"] = us_p(ix, "scenario.dsl_parse", 0.5);

  long long enumerated = 0, simulated = 0, memo = 0, skips = 0;
  std::size_t tails = 0;
  for (const mcan::ModelCheckResult& c : cap.check) {
    enumerated += c.stats.enumerated;
    simulated += c.stats.simulated;
    memo += c.stats.tail_memo_hits;
    skips += c.stats.symmetry_skips;
    tails = std::max(tails, c.stats.distinct_tails);
  }
  for (int k = 1; k <= kMaxK; ++k) {
    v["scenario.check_s.k" + std::to_string(k)] = or0(median(ix.seconds(kCheckSpan[k])));
  }
  const auto frac = [&](long long x) {
    return enumerated > 0 ? static_cast<double>(x) / static_cast<double>(enumerated)
                          : 0;
  };
  v["scenario.check_simulated_frac"] = frac(simulated);
  v["scenario.check_memo_hit_frac"] = frac(memo);
  v["scenario.check_symmetry_skip_frac"] = frac(skips);
  v["scenario.check_distinct_tails"] = static_cast<double>(tails);
  v["scenario.check_case_us_p50"] = us_p(ix, "scenario.flip_case", 0.5);

  if (cap.served) served_metrics(ix, *cap.served, v);
  v["serve.checkpoint_us.fuzz"] = us_p(ix, "serve.checkpoint.fuzz", 0.5);
  v["serve.checkpoint_us.rare"] = us_p(ix, "serve.checkpoint.rare", 0.5);
  v["serve.journal_append_us_p50"] = us_p(ix, "serve.journal_append", 0.5);
  v["serve.json_parse_us_p50"] = us_p(ix, "serve.json_parse", 0.5);
  v["serve.json_dump_us_p50"] = us_p(ix, "serve.json_dump", 0.5);

  const SpanRec* w = ix.by_id(workload_span);
  std::size_t in_workload = 0;
  for (const SpanRec& s : ix.spans()) {
    if (ix.under(s.id, workload_span)) ++in_workload;
  }
  v["bench.traced_units_per_s"] =
      drive.engine_s > 0 ? static_cast<double>(drive.units) / drive.engine_s : 0;
  // Recording cost of the workload's spans as a share of its CPU time.
  v["bench.trace_overhead_frac"] =
      w != nullptr && w->seconds() > 0
          ? static_cast<double>(in_workload) * span_cost /
                (w->seconds() * opt.jobs)
          : 0;
  v["bench.span_cover_frac"] = w != nullptr ? driver_cover(ix, *w) : 0;

  for (const auto& [name, unit] : layer_units()) {
    const auto it = v.find(name);
    r.add(name, it != v.end() ? it->second : 0, unit);
  }
  r.detail.set("spans", Json(static_cast<long long>(ix.spans().size())));
  r.detail.set("trace_file", Json(opt.trace_out));
  if (!ix.write_chrome(opt.trace_out, 20000)) {
    r.abort_run("cannot write the trace file " + opt.trace_out);
  }
  std::fprintf(stderr, "self time by span (%s):\n%s", workload_name(own),
               ix.self_time_table(20).c_str());
  return r;
}

}  // namespace e2e
