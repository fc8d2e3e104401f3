#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/text.hpp"

namespace e2e {

std::atomic<bool> g_stop{false};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0 || !std::isfinite(v[hi])) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t derive_seed(std::uint64_t base, std::string_view tag,
                          std::uint64_t index) {
  // splitmix64 finalizer over (base, tag, index).
  std::uint64_t z = fnv1a(tag, base * 0x9e3779b97f4a7c15ULL + index);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return (z & 0x7fffffffULL) + 1;
}

double vmhwm_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  return 0;
}

void reset_vmhwm() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::Rare: return "rare_can32";
    case Workload::Fuzz: return "fuzz_major5_triage";
    case Workload::Check: return "check_major5_k5";
    case Workload::Served: return "served_mix";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view s) {
  for (const Workload w : kWorkloads) {
    if (s == workload_name(w)) return w;
  }
  return std::nullopt;
}

const Scale& full_scale() {
  static const Scale s{
      .name = "full",
      .rare_trials = 50000,
      .fuzz_execs = 2500,
      .check_max_k = 4,
      .check_k5_hi = 10,
      .served_rate = 40,
      .probe_rare_trials = 20000,
      .probe_fuzz_execs = 2000,
      .probe_served_s = 2.0,
      .sim_steps = 200000,
      .replay_specs = 1000,
      .minimize_findings = 500,
      .flip_cases = 2000,
      .clone_reps = 200,
      .io_reps = 200,
  };
  return s;
}

const Scale& smoke_scale() {
  static const Scale s{
      .name = "smoke",
      .rare_trials = 1000,
      .fuzz_execs = 300,
      .check_max_k = 3,
      .check_k5_hi = 2,
      .served_rate = 20,
      .probe_rare_trials = 500,
      .probe_fuzz_execs = 200,
      .probe_served_s = 0.6,
      .sim_steps = 10000,
      .replay_specs = 40,
      .minimize_findings = 20,
      .flip_cases = 100,
      .clone_reps = 20,
      .io_reps = 20,
  };
  return s;
}

int engine_jobs() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min<unsigned>(kMaxThreads, hw));
}

std::string expected_digest(const RunOptions& opt, const std::string& key) {
  std::string text;
  mcan::Json doc;
  std::string error;
  if (!read_file(opt.expected_path, text) ||
      !mcan::Json::parse(text, doc, error)) {
    return "";
  }
  const mcan::Json* scale = doc.find(opt.scale->name);
  const mcan::Json* entry = scale != nullptr ? scale->find(key) : nullptr;
  return entry != nullptr && entry->is_string() ? entry->as_string() : "";
}

std::string num(double v) { return mcan::json_number(v); }

std::string result_line(const RunResult& r) {
  // An aborted run counts as one failed operation; attempted covers failed.
  const long long failed =
      std::max<long long>(r.failed, r.errors.empty() ? 0 : 1);
  const long long attempted = std::max({r.attempted, failed, 1LL});
  std::string s = "{\"correct\": ";
  s += r.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) s += ", ";
    // A run with no samples (an aborted one) still prints numbers.
    s += "\"" + mcan::json_escape(m.name) + "\": {\"value\": " +
         (std::isfinite(m.value) ? num(m.value) : "0") + ", \"unit\": \"" +
         mcan::json_escape(m.unit) + "\"}";
  }
  return s + "}}";
}

std::string result_record(const RunResult& r) {
  std::string s = "{\"workload\": \"" + std::string(workload_name(r.workload)) +
                  "\", \"seed\": " + std::to_string(r.seed) +
                  ", \"trace\": " + (r.traced ? "1" : "0") + ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + mcan::json_escape(r.errors[i]) + "\"";
  }
  s += "], \"detail\": " + r.detail.dump() + ", ";
  const std::string line = result_line(r);
  return s + line.substr(1);  // splice the result line's members in
}

std::string result_table(const RunResult& r) {
  std::ostringstream os;
  os << workload_name(r.workload) << " (seed " << r.seed
     << (r.traced ? ", traced" : "") << "): " << r.attempted << " attempted, "
     << r.failed << " failed" << (r.correct() ? "" : "  ** INCORRECT **")
     << "\n";
  for (const Metric& m : r.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-34s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    os << buf;
  }
  for (const std::string& e : r.errors) os << "  error: " << e << "\n";
  return os.str();
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

bool load_declared(Declared& out, std::string& error) {
  const std::string path = BENCH_E2E_BENCHMARK_JSON;
  std::string text;
  mcan::Json doc;
  if (!read_file(path, text)) {
    error = "cannot read " + path;
    return false;
  }
  if (!mcan::Json::parse(text, doc, error)) {
    error = path + ": " + error;
    return false;
  }
  const mcan::Json* workloads = doc.find("workloads");
  const mcan::Json* seconds = doc.find("run_seconds");
  if (workloads == nullptr || !workloads->is_array() || seconds == nullptr) {
    error = path + ": no \"workloads\" list or \"run_seconds\"";
    return false;
  }
  for (const mcan::Json& w : workloads->items()) {
    const mcan::Json* name = w.find("name");
    if (name == nullptr) {
      error = path + ": a workload without a name";
      return false;
    }
    out.workloads.push_back(name->as_string());
  }
  out.run_seconds = seconds->as_double();
  for (const auto& [key, list_out] :
       {std::pair<const char*, std::vector<DeclaredMetric>*>{"end_to_end",
                                                             &out.e2e},
        {"per_layer", &out.layers}}) {
    const mcan::Json* list = doc.find(key);
    if (list == nullptr || !list->is_array()) {
      error = path + ": no \"" + key + "\" list";
      return false;
    }
    for (const mcan::Json& m : list->items()) {
      const mcan::Json* name = m.find("name");
      const mcan::Json* unit = m.find("unit");
      if (name == nullptr || unit == nullptr) {
        error = path + ": a metric without name or unit";
        return false;
      }
      const mcan::Json* better = m.find("better");
      const mcan::Json* bound = m.find("bound");
      list_out->push_back({name->as_string(), unit->as_string(),
                           better == nullptr || better->as_string() != "higher",
                           bound != nullptr ? bound->as_double() : 0});
    }
  }
  return true;
}

}  // namespace e2e
