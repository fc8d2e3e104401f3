#include "served.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "pool.hpp"
#include "process.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace e2e {

using mcan::Json;

namespace {

// Job sizes, the same at every scale: small jobs, so the serve layers are
// a large share of each.
constexpr long long kFuzzExecs = 256;    // fuzz and attack jobs
constexpr long long kRareTrials = 1024;
constexpr long long kCheckMaxK = 2;

constexpr double kJobDeadlineS = 10;     // per job, from due/submit time
constexpr double kPollS = 0.001;         // status poll interval
constexpr double kWatchdogPeriodS = 1;   // ping + stats cadence
constexpr double kStallS = 5;            // no job finished while some queued
constexpr double kIoTimeoutS = 5;        // any single request
constexpr double kReadyTimeoutS = 10;    // spawn until the first ping
constexpr double kReadyPollS = 50e-6;    // connect retry: finer than setup
constexpr int kPollers = kMaxThreads - 1;

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// sun_path holds 108 bytes: use the path relative to the working
/// directory when that is shorter (the daemon inherits it).
std::string socket_path(const RunOptions& opt, int n) {
  const std::filesystem::path p =
      std::filesystem::path(opt.work_dir) / ("d" + std::to_string(n) + ".sock");
  std::error_code ec;
  const std::filesystem::path rel = std::filesystem::relative(p, ec);
  return !ec && !rel.empty() && rel.string().size() < p.string().size()
             ? rel.string()
             : p.string();
}

/// A live mcan-served child.
class Daemon {
 public:
  bool start(const RunOptions& opt, int n, std::string& error) {
    sock_ = socket_path(opt, n);
    journal_ = opt.work_dir + "/journal-" + std::to_string(n);
    std::error_code ec;
    std::filesystem::remove(sock_, ec);
    std::filesystem::remove_all(journal_, ec);
    log_ = opt.work_dir + "/served.log";
    const std::int64_t t_spawn = now_ns();
    if (!child_.start({opt.served_exe, "--socket", sock_, "--journal-dir",
                       journal_, "--workers", std::to_string(opt.jobs),
                       "--kernel", "fast"},
                      false, log_, error)) {
      return false;
    }
    const double deadline = now_s() + kReadyTimeoutS;
    while (!g_stop.load()) {
      Client c;
      Json res;
      std::string err;
      if (c.connect(sock_, kIoTimeoutS, err) &&
          c.call(mcan::make_request("ping"), res, err) && response_ok(res)) {
        ready_s_ = static_cast<double>(now_ns() - t_spawn) * 1e-9;
        return true;
      }
      int status = 0;
      if (child_.wait(now_s(), status)) {
        error = "mcan-served exited during startup (see " + log_ + ")";
        return false;
      }
      if (now_s() > deadline) {
        error = "mcan-served did not answer ping within " +
                std::to_string(static_cast<int>(kReadyTimeoutS)) + " s";
        return false;
      }
      sleep_s(kReadyPollS);
    }
    error = "interrupted";
    return false;
  }

  /// Graceful shutdown request, then a bounded wait, then signals.
  void stop() {
    if (!child_.running()) return;
    Client c;
    Json res;
    std::string err;
    if (c.connect(sock_, kIoTimeoutS, err)) {
      (void)c.call(mcan::make_request("shutdown"), res, err);
    }
    int status = 0;
    if (!child_.wait(now_s() + 5, status)) child_.terminate();
    std::error_code ec;
    std::filesystem::remove_all(journal_, ec);
  }

  void kill() {
    child_.kill();
    std::error_code ec;
    std::filesystem::remove_all(journal_, ec);
    std::filesystem::remove(sock_, ec);
  }

  [[nodiscard]] const std::string& socket() const { return sock_; }
  [[nodiscard]] pid_t pid() const { return child_.pid(); }
  [[nodiscard]] double ready_s() const { return ready_s_; }

 private:
  Child child_;
  std::string sock_;
  std::string journal_;
  std::string log_;
  double ready_s_ = 0;
};

/// First error wins; every loop polls `raised`.
struct Abort {
  std::atomic<bool> raised{false};
  std::mutex mu;
  std::string reason;

  void raise(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    if (!raised.load()) {
      reason = why;
      raised.store(true);
    }
  }
  std::string why() {
    std::lock_guard<std::mutex> lock(mu);
    return reason;
  }
};

/// Pings the daemon and reads its stats once a period; raises the abort
/// when the daemon stops answering, when as many shards were requeued as
/// there are workers (each requeue is a worker that died, and dead
/// workers are not replaced), or when no job finished for kStallS while
/// jobs were queued.
class Watchdog {
 public:
  Watchdog(Client& conn, int workers, Abort& abort)
      : conn_(conn), workers_(workers), abort_(abort) {}

  void tick() {
    const double now = now_s();
    if (now - last_ < kWatchdogPeriodS || abort_.raised.load()) return;
    last_ = now;
    Json res;
    std::string err;
    {
      const Span span("serve.ping");
      if (!conn_.call(mcan::make_request("ping"), res, err) ||
          !response_ok(res)) {
        abort_.raise("served daemon not answering ping: " + err);
        return;
      }
    }
    {
      const Span span("serve.stats");
      if (!conn_.call(mcan::make_request("stats"), res, err) ||
          !response_ok(res)) {
        abort_.raise("served stats endpoint failed: " + err);
        return;
      }
    }
    const Json* stats = res.find("stats");
    const Json* shards = stats != nullptr ? stats->find("shards") : nullptr;
    const Json* jobs = stats != nullptr ? stats->find("jobs") : nullptr;
    const long long requeued =
        shards != nullptr && shards->find("requeued") != nullptr
            ? shards->find("requeued")->as_int()
            : 0;
    if (requeued >= workers_) {
      abort_.raise("served fleet lost: " + std::to_string(requeued) +
                   " shard requeues with " + std::to_string(workers_) +
                   " workers (each requeue is a dead worker)");
      return;
    }
    const auto count = [&](const char* key) {
      return jobs != nullptr && jobs->find(key) != nullptr
                 ? jobs->find(key)->as_int()
                 : 0;
    };
    const long long finished =
        count("done") + count("failed") + count("cancelled");
    const long long live = count("queued") + count("running");
    if (finished != finished_ || live == 0) {
      finished_ = finished;
      progress_at_ = now;
    } else if (now - progress_at_ > kStallS) {
      abort_.raise("served queue stalled: " + std::to_string(live) +
                   " live jobs, none finished in " +
                   std::to_string(static_cast<int>(kStallS)) + " s");
    }
  }

 private:
  Client& conn_;
  int workers_;
  Abort& abort_;
  double last_ = 0;
  long long finished_ = -1;
  double progress_at_ = now_s();
};

Json request_with_id(const char* type, long long id) {
  Json req = mcan::make_request(type);
  req.set("id", Json(id));
  return req;
}

/// Submit; on failure the job is terminal with its error set.
bool submit(Client& conn, ServedJob& job) {
  Json req = mcan::make_request("submit");
  req.set("spec", job.spec);
  Json res;
  std::string err;
  job.submit_start = now_s();
  const Span span("serve.submit");
  if (!conn.call(req, res, err)) {
    job.error = "submit: " + err;
    return false;
  }
  job.submit_end = now_s();
  if (!response_ok(res)) {
    const bool rejected =
        res.find("rejected") != nullptr && res.find("rejected")->as_bool();
    job.error = std::string(rejected ? "rejected: " : "submit: ") +
                response_error(res);
    return false;
  }
  job.id = res.find("id") != nullptr ? res.find("id")->as_int() : 0;
  return true;
}

/// One status poll (and the result fetch once done).  True when the job
/// is terminal: ok with its result, or failed with its error.
bool poll(Client& conn, ServedJob& job, double deadline) {
  Json res;
  std::string err;
  {
    const Span span("serve.status");
    if (!conn.call(request_with_id("status", job.id), res, err)) {
      job.error = "status: " + err;
      return true;
    }
  }
  const double now = now_s();
  const Json* info = res.find("job");
  const Json* state = info != nullptr ? info->find("state") : nullptr;
  if (!response_ok(res) || state == nullptr || !state->is_string()) {
    job.error = "status: " + response_error(res);
    return true;
  }
  const std::string& s = state->as_string();
  if (s != "queued" && job.first_run == 0) job.first_run = now;
  if (s == "done") {
    job.done_status = now;
    const Span span("serve.result");
    if (!conn.call(request_with_id("result", job.id), res, err) ||
        !response_ok(res) || res.find("result") == nullptr) {
      job.error = "result: " + (err.empty() ? response_error(res) : err);
      return true;
    }
    job.result = res.find("result")->as_string();
    job.result_at = now_s();
    job.ok = true;
    return true;
  }
  if (s == "failed" || s == "cancelled") {
    const Json* why = info->find("error");
    job.error = "job " + s +
                (why != nullptr && why->is_string() ? ": " + why->as_string()
                                                    : std::string());
    return true;
  }
  if (now > deadline) {
    (void)conn.call(request_with_id("cancel", job.id), res, err);
    job.error = "deadline exceeded (" +
                std::to_string(static_cast<int>(kJobDeadlineS)) + " s)";
    return true;
  }
  return false;
}

double job_deadline(const ServedJob& job) {
  return (job.open_loop ? job.due : job.submit_start) + kJobDeadlineS;
}

std::string spec_kind(const Json& spec) {
  const Json* b = spec.find("backend");
  return b != nullptr && b->is_string() ? b->as_string() : "?";
}

/// Open loop: this thread sends on schedule and runs the watchdog; kPollers
/// threads poll the jobs in flight, each on its own connection.
void run_open_loop(std::vector<ServedJob>& jobs, std::vector<double>& lags,
                   std::vector<Client>& conns, Watchdog& dog, Abort& abort) {
  const Span phase("served.open_loop");
  std::mutex mu;
  std::vector<std::vector<std::size_t>> inbox(kPollers);
  bool sender_done = false;  // guarded by mu
  std::atomic<int> drained{0};
  std::vector<std::thread> pollers;
  for (int p = 0; p < kPollers; ++p) {
    pollers.emplace_back([&, p, parent = phase.id()] {
      trace::name_thread("client-" + std::to_string(p + 2));
      const Span span("served.poller", parent);
      std::vector<std::size_t>& mine = inbox[static_cast<std::size_t>(p)];
      Client& conn = conns[static_cast<std::size_t>(p + 1)];
      std::vector<std::size_t> active;
      try {
        for (;;) {
          bool done = false;
          {
            std::lock_guard<std::mutex> lock(mu);
            active.insert(active.end(), mine.begin(), mine.end());
            mine.clear();
            done = sender_done;
          }
          if (abort.raised.load()) {
            for (const std::size_t a : active) {
              jobs[a].error = "aborted: " + abort.why();
            }
            active.clear();
          }
          if (active.empty() && done) break;
          std::erase_if(active, [&](std::size_t a) {
            return poll(conn, jobs[a], job_deadline(jobs[a]));
          });
          sleep_s(kPollS);
        }
      } catch (const std::exception& e) {
        abort.raise(std::string("load generator: ") + e.what());
        for (const std::size_t a : active) jobs[a].error = "aborted";
      }
      drained.fetch_add(1);
    });
  }
  try {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ServedJob& job = jobs[i];
      while (now_s() < job.due && !abort.raised.load() && !g_stop.load()) {
        dog.tick();
        sleep_s(std::min(kPollS, std::max(0.0, job.due - now_s())));
      }
      if (abort.raised.load() || g_stop.load()) {
        job.error = "aborted: " + (g_stop.load() ? "interrupted" : abort.why());
        continue;
      }
      lags.push_back(now_s() - job.due);
      if (!submit(conns[0], job)) continue;
      std::lock_guard<std::mutex> lock(mu);
      inbox[i % kPollers].push_back(i);
    }
  } catch (const std::exception& e) {
    // The pollers only stop once the sender is done: never unwind past them.
    abort.raise(std::string("load generator: ") + e.what());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sender_done = true;
  }
  // Keep watching until the pollers drain.
  while (drained.load() < kPollers) {
    dog.tick();
    if (g_stop.load()) abort.raise("interrupted");
    sleep_s(kPollS);
  }
  for (std::thread& t : pollers) t.join();
}

/// Closed loop: kMaxThreads clients (this thread is client 1 and also runs
/// the watchdog), each with one job in flight at a time.
std::vector<ServedJob> run_closed_loop(const RunOptions& opt, double closed_s,
                                       std::vector<Client>& conns,
                                       Watchdog& dog, Abort& abort,
                                       double& start) {
  const Span phase("served.closed_loop");
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<ServedJob>> done(kMaxThreads);
  start = now_s();
  const double end = start + closed_s;
  const auto client = [&](int c) {
    std::vector<ServedJob>& mine = done[static_cast<std::size_t>(c)];
    try {
      while (now_s() < end && !abort.raised.load() && !g_stop.load()) {
        ServedJob job;
        job.open_loop = false;
        job.spec = served_spec(opt.seed, "closed", next.fetch_add(1));
        job.kind = spec_kind(job.spec);
        if (submit(conns[static_cast<std::size_t>(c)], job)) {
          while (!poll(conns[static_cast<std::size_t>(c)], job,
                       job_deadline(job))) {
            if (c == 0) dog.tick();
            if (abort.raised.load()) {
              job.error = "aborted: " + abort.why();
              break;
            }
            sleep_s(kPollS);
          }
        }
        mine.push_back(std::move(job));
      }
    } catch (const std::exception& e) {
      abort.raise(std::string("load generator: ") + e.what());
    }
  };
  std::vector<std::thread> others;
  for (int c = 1; c < kMaxThreads; ++c) {
    others.emplace_back([&, c, parent = phase.id()] {
      trace::name_thread("client-" + std::to_string(c + 1));
      const Span span("served.client", parent);
      client(c);
    });
  }
  client(0);
  for (std::thread& t : others) t.join();
  std::vector<ServedJob> all;
  for (auto& v : done) {
    for (ServedJob& j : v) all.push_back(std::move(j));
  }
  return all;
}

}  // namespace

// ---------------------------------------------------------------------------

Json served_spec(std::uint64_t seed, const char* phase, std::size_t index) {
  const auto job_seed = static_cast<long long>(derive_seed(seed, phase, index));
  Json spec = Json::object();
  switch (index % 4) {
    case 0:
      spec.set("backend", Json("fuzz"));
      spec.set("protocol", Json("major:5"));
      spec.set("nodes", Json(3LL));
      spec.set("seed", Json(job_seed));
      spec.set("max_execs", Json(kFuzzExecs));
      break;
    case 1:
      spec.set("backend", Json("rare"));
      spec.set("protocol", Json("can"));
      spec.set("nodes", Json(32LL));
      spec.set("ber", Json(1e-5));
      spec.set("mode", Json("importance"));
      spec.set("seed", Json(job_seed));
      spec.set("trials", Json(kRareTrials));
      break;
    case 2: {
      spec.set("backend", Json("check"));
      Json protos = Json::array();
      protos.push(Json("major:3"));
      spec.set("protocols", std::move(protos));
      spec.set("max_k", Json(kCheckMaxK));
      spec.set("nodes", Json(3LL));
      break;
    }
    default:
      spec.set("backend", Json("attack"));
      spec.set("protocol", Json("major:5"));
      spec.set("nodes", Json(3LL));
      spec.set("seed", Json(job_seed));
      spec.set("max_execs", Json(kFuzzExecs));
      break;
  }
  return spec;
}

std::vector<double> open_schedule(const Scale& s, std::uint64_t seed,
                                  double open_s) {
  // A Poisson process at served_rate conditioned on its expected count:
  // that many arrival times drawn uniformly over the window, sorted.  Every
  // seed offers the same load; only the burst pattern differs.
  mcan::Rng rng(derive_seed(seed, "arrivals", 0));
  const auto n = static_cast<std::size_t>(std::lround(s.served_rate * open_s));
  std::vector<double> due(n);
  for (double& t : due) t = rng.next_double() * open_s;
  std::sort(due.begin(), due.end());
  return due;
}

std::unique_ptr<mcan::CampaignBackend> run_backend(const Json& spec) {
  std::string error;
  std::unique_ptr<mcan::CampaignBackend> b = mcan::make_backend(spec, error);
  if (!b) throw std::invalid_argument("bad job spec: " + error);
  for (;;) {
    const std::size_t n = b->plan_round();
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) b->execute_slot(i);
    b->merge_round();
  }
  return b;
}

std::string local_result(const Json& spec) {
  return run_backend(spec)->result_json();
}

std::string served_digest(const std::vector<ServedJob>& jobs) {
  std::uint64_t sum = 0;
  for (const ServedJob& j : jobs) {
    sum += fnv1a(j.spec.dump() + "\n" + j.result);  // order-independent
  }
  return std::to_string(jobs.size()) + " jobs " + hex64(sum);
}

namespace {

/// Spawn the daemon `reps` times; median seconds from spawn until the
/// first ping answers.
double served_setup_s(const RunOptions& opt, int reps, RunResult& r) {
  std::vector<double> samples;
  for (int i = 0; i < reps && !g_stop.load(); ++i) {
    Daemon d;
    std::string err;
    if (!d.start(opt, 100 + i, err)) {
      r.fail("daemon setup: " + err);
      d.kill();
      return 0;
    }
    samples.push_back(d.ready_s());
    d.kill();  // nothing to flush: no job ever ran
  }
  return median(samples);
}

}  // namespace

ServedSession drive_served(const RunOptions& opt, double open_s,
                           double closed_s) {
  ServedSession out;
  const Span session("served.session");
  Daemon daemon;
  std::string err;
  {
    const Span span("served.startup");
    if (!daemon.start(opt, 0, err)) {
      out.errors.push_back("daemon start: " + err);
      daemon.kill();
      return out;
    }
  }
  std::vector<Client> conns(kMaxThreads);
  for (Client& c : conns) {
    if (!c.connect(daemon.socket(), kIoTimeoutS, err)) {
      out.errors.push_back("connect: " + err);
      daemon.kill();
      return out;
    }
  }
  Abort abort;
  Watchdog dog(conns[0], opt.jobs, abort);

  const double t0 = now_s() + 0.05;
  std::vector<ServedJob>& jobs = out.jobs;
  if (!opt.inject_spec.empty()) {
    ServedJob j;
    std::string perr;
    if (!Json::parse(opt.inject_spec, j.spec, perr)) {
      out.errors.push_back("--inject-spec does not parse: " + perr);
    } else {
      j.kind = spec_kind(j.spec);
      j.due = t0;
      jobs.push_back(std::move(j));
    }
  }
  const std::vector<double> offsets = open_schedule(*opt.scale, opt.seed, open_s);
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    ServedJob j;
    j.spec = served_spec(opt.seed, "open", i);
    j.kind = spec_kind(j.spec);
    j.due = t0 + offsets[i];
    jobs.push_back(std::move(j));
  }
  run_open_loop(jobs, out.lags_s, conns, dog, abort);
  if (!abort.raised.load() && closed_s > 0) {
    std::vector<ServedJob> closed =
        run_closed_loop(opt, closed_s, conns, dog, abort, out.closed_start);
    for (ServedJob& j : closed) {
      if (j.ok) out.closed_end = std::max(out.closed_end, j.result_at);
      jobs.push_back(std::move(j));
    }
  }
  if (abort.raised.load()) out.errors.push_back(abort.why());

  Json res;
  if (conns[0].connected() &&
      conns[0].call(mcan::make_request("stats"), res, err) &&
      res.find("stats") != nullptr) {
    out.stats = *res.find("stats");
  }
  out.rss_mb = vmhwm_mb(daemon.pid());
  for (Client& c : conns) c.close();
  const Span span("served.shutdown");
  daemon.stop();
  return out;
}

std::vector<double> open_latencies(const ServedSession& s) {
  std::vector<double> lat;
  for (const ServedJob& j : s.jobs) {
    if (!j.open_loop) continue;
    lat.push_back(j.ok ? j.result_at - j.due : kJobDeadlineS);
  }
  return lat;
}

void tally_jobs(const ServedSession& s, RunResult& r) {
  for (const std::string& e : s.errors) r.abort_run(e);
  std::map<std::string, long long> why;  // one error line per distinct cause
  for (const ServedJob& j : s.jobs) {
    ++r.attempted;
    if (!j.ok) {
      ++why[std::string(j.open_loop ? "open" : "closed") + "-loop job: " +
            j.error];
    }
  }
  for (const auto& [what, n] : why) r.fail(what, n);
}

double replay_served(const RunOptions& opt, const ServedSession& s,
                     mcan::KernelKind kernel, RunResult& r) {
  std::vector<const ServedJob*> picked;
  for (std::size_t i = 0; i < s.jobs.size(); ++i) {
    if (s.jobs[i].ok && (opt.verify_ref || i % 10 == 0)) {
      picked.push_back(&s.jobs[i]);
    }
  }
  mcan::set_default_kernel(kernel);
  Pool pool(opt.jobs);
  const double t0 = now_s();
  std::mutex mu;
  std::vector<std::string> mismatches;
  pool.run(
      picked.size(),
      [&](std::size_t i) {
        std::string local;
        try {
          local = local_result(picked[i]->spec);
        } catch (const std::exception& e) {
          local = std::string("error: ") + e.what();
        }
        if (local != picked[i]->result) {
          std::lock_guard<std::mutex> lock(mu);
          mismatches.push_back(picked[i]->spec.dump());
        }
      },
      "served.replay");
  const double seconds = now_s() - t0;
  for (const std::string& m : mismatches) {
    r.fail(std::string("served result differs from a local ") +
           mcan::kernel_name(kernel) + " run of " + m);
  }
  r.detail.set("replayed_locally", Json(static_cast<long long>(picked.size())));
  return seconds;
}

RunResult run_served(const RunOptions& opt) {
  RunResult r;
  r.workload = Workload::Served;
  r.seed = opt.seed;
  const double setup_s = served_setup_s(opt, kSetupSamples, r);
  const double open_s = opt.seconds * kServedOpenFrac;
  const ServedSession s = drive_served(opt, open_s, opt.seconds - open_s);
  tally_jobs(s, r);
  long long closed_ok = 0;
  for (const ServedJob& j : s.jobs) {
    if (j.ok && !j.open_loop) ++closed_ok;
  }
  (void)replay_served(opt, s, mcan::KernelKind::Ref, r);
  if (opt.seed == kDefaultSeed && opt.inject_spec.empty()) {
    std::vector<ServedJob> open;
    for (const ServedJob& j : s.jobs) {
      if (j.open_loop) open.push_back(j);
    }
    const std::string key = "served_mix@" + num(opt.seconds);
    const std::string want = expected_digest(opt, key);
    if (want.empty()) {
      r.detail.set("golden", Json("none committed"));
    } else if (want != served_digest(open)) {
      r.fail("open-loop results differ from the committed golden digest");
    } else {
      r.detail.set("golden", Json("match"));
    }
  }
  const std::vector<double> lat = open_latencies(s);
  const double closed_wall = s.closed_end - s.closed_start;
  r.add("units_per_s",
        closed_wall > 0 ? static_cast<double>(closed_ok) / closed_wall : 0,
        "1/s");
  r.add("latency_p50_ms", median(lat) * 1e3, "ms");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", s.rss_mb, "MB");
  r.detail.set("open_jobs", Json(static_cast<long long>(lat.size())));
  r.detail.set("latency_p90_ms", Json(quantile(lat, 0.9) * 1e3));
  r.detail.set("latency_p99_ms", Json(quantile(lat, 0.99) * 1e3));
  r.detail.set("closed_jobs", Json(closed_ok));
  r.detail.set("generator_lag_ms_p99", Json(quantile(s.lags_s, 0.99) * 1e3));
  return r;
}

}  // namespace e2e
