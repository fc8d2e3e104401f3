// bench_e2e compare A/*.json B/*.json — the A/B rule of the benchmark.
//
// Files are grouped by directory (first directory = A, the parent; second
// = B, the change) and paired by sorted file name, as bench/e2e/ab.sh
// writes them.  One row per workload and end-to-end metric:
//
//   * each side's median and quartiles, and B's win fraction over the pairs
//     (ties count for neither side);
//   * "unresolved" when either side's spread (IQR / median) exceeds the
//     metric's bound, unless B is not failing and every B run beats
//     every A run;
//   * "REGRESSION" when B's median is worse than A's by more than the bound
//     BENCHMARK.json fixes;
//   * "gain" when B wins at least 9/10 of the pairs and the medians differ
//     by more than A's own IQR;
//   * otherwise "within bound".
//
// Each workload's header gives both sides' failed / attempted operations
// and incorrect runs.  A workload where B has more failures than A, or any
// incorrect run, is "FAILING": its rows can show no gain, and it counts as
// a regression.  Traced records get per-layer rows (medians only: they
// have no bounds).  Exit status 1 when any row or workload is a regression.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

#include "modes.hpp"

namespace e2e {

using mcan::Json;

namespace {

struct Record {
  std::string workload;
  bool traced = false;
  bool correct = false;
  long long attempted = 0;
  long long failed = 0;
  std::map<std::string, double> metrics;
};

bool load_records(const std::string& path, std::vector<Record>& out,
                  std::string& error) {
  std::string text;
  Json doc;
  if (!read_file(path, text)) {
    error = "cannot read " + path;
    return false;
  }
  if (!Json::parse(text, doc, error)) {
    error = path + ": " + error;
    return false;
  }
  std::vector<const Json*> items;
  if (doc.is_array()) {
    for (const Json& j : doc.items()) items.push_back(&j);
  } else {
    items.push_back(&doc);
  }
  for (const Json* j : items) {
    const Json* w = j->find("workload");
    const Json* m = j->find("metrics");
    const Json* correct = j->find("correct");
    const Json* attempted = j->find("attempted");
    const Json* failed = j->find("failed");
    if (w == nullptr || m == nullptr || !m->is_object() || correct == nullptr ||
        attempted == nullptr || failed == nullptr) {
      error = path + ": not a bench_e2e --out record";
      return false;
    }
    Record rec;
    rec.workload = w->as_string();
    rec.traced = j->find("trace") != nullptr && j->find("trace")->as_int() == 1;
    rec.correct = correct->as_bool();
    rec.attempted = attempted->as_int();
    rec.failed = failed->as_int();
    for (const auto& [name, val] : m->members()) {
      const Json* v = val.find("value");
      if (v != nullptr) rec.metrics[name] = v->as_double();
    }
    out.push_back(std::move(rec));
  }
  return true;
}

std::vector<double> values(const std::vector<Record>& recs,
                           const std::string& workload, bool traced,
                           const std::string& metric) {
  std::vector<double> v;
  for (const Record& r : recs) {
    if (r.workload != workload || r.traced != traced) continue;
    const auto it = r.metrics.find(metric);
    if (it != r.metrics.end()) v.push_back(it->second);
  }
  return v;
}

/// Failed / attempted operations and incorrect runs of one side's records
/// of a workload.
struct Tally {
  std::size_t runs = 0;
  std::size_t incorrect = 0;
  long long attempted = 0;
  long long failed = 0;
};

Tally tally(const std::vector<Record>& recs, const std::string& workload) {
  Tally t;
  for (const Record& r : recs) {
    if (r.workload != workload) continue;
    ++t.runs;
    if (!r.correct) ++t.incorrect;
    t.attempted += r.attempted;
    t.failed += r.failed;
  }
  return t;
}

double spread(const std::vector<double>& v) {
  const double m = median(v);
  return m != 0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / std::fabs(m) : 0;
}

}  // namespace

int compare_main(const std::vector<std::string>& files) {
  std::vector<std::string> dirs;
  std::map<std::string, std::vector<std::string>> by_dir;
  for (const std::string& f : files) {
    const std::string d = std::filesystem::path(f).parent_path().string();
    if (by_dir.find(d) == by_dir.end()) dirs.push_back(d);
    by_dir[d].push_back(f);
  }
  if (dirs.size() != 2) {
    std::fprintf(stderr,
                 "bench_e2e compare: want the records of two directories "
                 "(A/*.json B/*.json), got %zu\n",
                 dirs.size());
    return 2;
  }
  Declared declared;
  std::string error;
  if (!load_declared(declared, error)) {
    std::fprintf(stderr, "bench_e2e compare: %s\n", error.c_str());
    return 2;
  }
  std::vector<Record> side[2];
  for (int s = 0; s < 2; ++s) {
    std::vector<std::string>& fs = by_dir[dirs[static_cast<std::size_t>(s)]];
    std::sort(fs.begin(), fs.end());  // pairs A[i] with B[i]
    for (const std::string& f : fs) {
      if (!load_records(f, side[s], error)) {
        std::fprintf(stderr, "bench_e2e compare: %s\n", error.c_str());
        return 2;
      }
    }
  }

  int regressions = 0;
  int unresolved = 0;
  int failing = 0;
  std::printf("A = %s, B = %s\n", dirs[0].c_str(), dirs[1].c_str());
  for (const Workload wl : kWorkloads) {
    const std::string w = workload_name(wl);
    const Tally ta = tally(side[0], w);
    const Tally tb = tally(side[1], w);
    if (ta.runs == 0 || tb.runs == 0) continue;
    // A change that fails more operations, or gives a wrong result, gains
    // nothing, however fast it is.
    const bool b_failing = tb.incorrect > 0 || tb.failed > ta.failed;
    if (b_failing) ++failing;
    std::printf(
        "\n%s\n  A: %lld/%lld failed, %zu/%zu runs incorrect;  B: %lld/%lld "
        "failed, %zu/%zu runs incorrect%s\n",
        w.c_str(), ta.failed, ta.attempted, ta.incorrect, ta.runs, tb.failed,
        tb.attempted, tb.incorrect, tb.runs, b_failing ? "  ** FAILING **" : "");
    bool header = false;
    for (const DeclaredMetric& d : declared.e2e) {
      const std::vector<double> a = values(side[0], w, false, d.name);
      const std::vector<double> b = values(side[1], w, false, d.name);
      if (a.empty() || b.empty()) continue;
      if (!header) {
        std::printf("  %-16s %28s %28s %8s %6s %7s %6s  %s\n", "metric",
                    "A median [q1, q3]", "B median [q1, q3]", "delta", "B wins",
                    "spread", "bound", "verdict");
        header = true;
      }
      const auto better = [&](double x, double y) {
        return d.lower_better ? x < y : x > y;
      };
      const std::size_t pairs = std::min(a.size(), b.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        if (better(b[i], a[i])) ++wins;
      }
      const double ma = median(a);
      const double mb = median(b);
      const double worse = ma != 0 ? (d.lower_better ? mb - ma : ma - mb) /
                                         std::fabs(ma)
                                   : 0;
      const double sp = std::max(spread(a), spread(b));
      const bool all_better =
          d.lower_better
              ? *std::max_element(b.begin(), b.end()) <
                    *std::min_element(a.begin(), a.end())
              : *std::min_element(b.begin(), b.end()) >
                    *std::max_element(a.begin(), a.end());
      std::string verdict;
      if (sp > d.bound) {
        verdict = all_better && !b_failing ? "better (every run)" : "unresolved";
        if (verdict == "unresolved") ++unresolved;
      } else if (worse > d.bound) {
        verdict = "REGRESSION";
        ++regressions;
      } else if (!b_failing && wins * 10 >= pairs * 9 &&
                 std::fabs(mb - ma) > quantile(a, 0.75) - quantile(a, 0.25) &&
                 worse < 0) {
        verdict = "gain";
      } else {
        verdict = "within bound";
      }
      char ra[64];
      char rb[64];
      std::snprintf(ra, sizeof(ra), "%.4g [%.4g, %.4g]", ma, quantile(a, 0.25),
                    quantile(a, 0.75));
      std::snprintf(rb, sizeof(rb), "%.4g [%.4g, %.4g]", mb, quantile(b, 0.25),
                    quantile(b, 0.75));
      std::printf("  %-16s %28s %28s %+7.1f%% %3zu/%-2zu %6.1f%% %5.1f%%  %s\n",
                  d.name.c_str(), ra, rb,
                  ma != 0 ? 100 * (mb - ma) / std::fabs(ma) : 0.0, wins, pairs,
                  100 * sp, 100 * d.bound, verdict.c_str());
    }
    bool layer_header = false;
    for (const DeclaredMetric& d : declared.layers) {
      const std::vector<double> a = values(side[0], w, true, d.name);
      const std::vector<double> b = values(side[1], w, true, d.name);
      if (a.empty() || b.empty()) continue;
      if (!layer_header) {
        std::printf("  per-layer (traced runs, medians):\n");
        layer_header = true;
      }
      const double ma = median(a);
      const double mb = median(b);
      std::printf("    %-36s %14.6g %14.6g %+8.1f%% %s\n", d.name.c_str(), ma,
                  mb, ma != 0 ? 100 * (mb - ma) / std::fabs(ma) : 0.0,
                  d.unit.c_str());
    }
  }
  std::printf(
      "\n{\"regressions\": %d, \"unresolved\": %d, \"failing\": %d}\n",
      regressions, unresolved, failing);
  return regressions > 0 || failing > 0 ? 1 : 0;
}

}  // namespace e2e
