// bench_e2e — end-to-end and per-layer benchmark of the campaign engines
// and the serve daemon.  See bench/e2e/README.md for the workloads, every
// metric, and how to read a trace.
//
//     bench_e2e --workload rare_can32 --seed 7 --seconds 20 --trace 0
//     bench_e2e --seed 1 --out results.json        # all four workloads
//     bench_e2e --workload served_mix --trace 1    # per-layer metrics +
//                                                  # Chrome trace file
//     bench_e2e --smoke                            # ctest smoke run
//     bench_e2e --regen-expected                   # rewrite expected.json
//     bench_e2e --list-workloads                   # one name per line
//     bench_e2e compare A/*.json B/*.json          # A/B verdicts
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics.  Exit status: 0 = the benchmark ran (its
// correctness is in that line), 1 = smoke/compare/regen failure, 2 = usage
// or set-up error.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "local.hpp"
#include "modes.hpp"
#include "served.hpp"
#include "sim/kernel.hpp"
#include "util/text.hpp"

namespace {

using namespace e2e;

void on_signal(int) { g_stop.store(true); }

void usage(std::FILE* to) {
  std::fputs(
      "usage: bench_e2e [options]\n"
      "       bench_e2e --smoke\n"
      "       bench_e2e --regen-expected\n"
      "       bench_e2e --list-workloads\n"
      "       bench_e2e compare A/*.json B/*.json\n"
      "\n"
      "options:\n"
      "  --workload W       rare_can32 | fuzz_major5_triage | check_major5_k5 |\n"
      "                     served_mix (default: all four in turn)\n"
      "  --seed N           input seed (default 1; golden digests apply at 1)\n"
      "  --seconds S        measurement window per workload (default 20)\n"
      "  --trace 0|1|FILE   1 or FILE: traced run, per-layer metrics, and a\n"
      "                     Chrome trace (in FILE, or in the work directory)\n"
      "  --out FILE         also write the full result record(s) as JSON\n"
      "  --verify-ref       rerun every unit on the ref kernel (default: a\n"
      "                     10% slice)\n"
      "  --scale full|smoke job sizes (default full)\n"
      "  --work-dir DIR     scratch space (default: next to the binary)\n"
      "  --inject-spec JSON served_mix: submit this job spec first\n",
      to);
}

bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size();
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return !s.empty() && s[0] != '-' && end == s.c_str() + s.size();
}

std::string exe_dir() {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : exe.parent_path().string();
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);  // a dead daemon must not kill the harness

  RunOptions opt;
  opt.jobs = engine_jobs();
  opt.served_exe = BENCH_E2E_SERVED;
  opt.expected_path = BENCH_E2E_EXPECTED;
  std::string out_path;
  std::string work_base = exe_dir() + "/work";
  bool all = true;
  bool child = false;
  bool setup_only = false;
  bool smoke = false;
  bool regen = false;
  std::vector<std::string> compare_files;
  bool compare = false;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&](std::string& out) {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "bench_e2e: %s needs a value\n", a.c_str());
        return false;
      }
      out = args[++i];
      return true;
    };
    std::string v;
    if (a == "-h" || a == "--help") {
      usage(stdout);
      return 0;
    } else if (compare) {
      compare_files.push_back(a);
    } else if (a == "compare" && i == 0) {
      compare = true;
    } else if (a == "--list-workloads") {
      for (const Workload w : kWorkloads) std::printf("%s\n", workload_name(w));
      return 0;
    } else if (a == "--workload" || a == "--child") {
      if (!value(v)) return 2;
      const std::optional<Workload> w = parse_workload(v);
      if (!w) {
        std::fprintf(stderr, "bench_e2e: unknown workload %s\n", v.c_str());
        return 2;
      }
      opt.workload = *w;
      all = false;
      child = child || a == "--child";
    } else if (a == "--seed") {
      if (!value(v) || !parse_u64(v, opt.seed)) {
        std::fprintf(stderr, "bench_e2e: bad --seed value\n");
        return 2;
      }
    } else if (a == "--seconds") {
      if (!value(v) || !parse_double(v, opt.seconds) || opt.seconds <= 0 ||
          opt.seconds > 120) {
        std::fprintf(stderr, "bench_e2e: bad --seconds value (0 < S <= 120)\n");
        return 2;
      }
    } else if (a == "--trace") {
      if (!value(v)) return 2;
      opt.trace = v != "0";
      if (v != "0" && v != "1") opt.trace_out = v;
    } else if (a == "--out") {
      if (!value(out_path)) return 2;
    } else if (a == "--verify-ref") {
      opt.verify_ref = true;
    } else if (a == "--scale") {
      if (!value(v) || (v != "full" && v != "smoke")) {
        std::fprintf(stderr, "bench_e2e: bad --scale value (full|smoke)\n");
        return 2;
      }
      opt.scale = v == "full" ? &full_scale() : &smoke_scale();
    } else if (a == "--work-dir") {
      if (!value(work_base)) return 2;
    } else if (a == "--inject-spec") {
      if (!value(opt.inject_spec)) return 2;
    } else if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--smoke") {
      smoke = true;
    } else if (a == "--regen-expected") {
      regen = true;
    } else {
      std::fprintf(stderr, "bench_e2e: unknown option %s\n", a.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (compare) return compare_main(compare_files);

  opt.self_exe = std::filesystem::read_symlink("/proc/self/exe").string();
  if (child) {
    opt.work_dir = work_base;
    try {
      return local_child_main(opt, setup_only);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e child: %s\n", e.what());
      return 1;
    }
  }

  // A single-workload run must end well inside 3 minutes even if something
  // below wedges; SIGALRM's default action ends this process and the death
  // signal takes every child with it.
  if (!all && !smoke && !regen) ::alarm(175);

  // This run's scratch directory; removed on the way out.
  opt.work_dir = work_base + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_e2e: cannot create %s: %s\n",
                 opt.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code e;
      std::filesystem::remove_all(dir, e);
    }
  } cleanup{opt.work_dir};
  // One trace file per workload: --trace FILE names it (with the workload
  // appended when all four run), else it goes into the work directory,
  // replacing the workload's previous trace.
  const std::string trace_arg = opt.trace_out;
  const auto trace_path = [&](Workload w) {
    if (trace_arg.empty()) {
      return work_base + "/trace-" + workload_name(w) + ".json";
    }
    return all ? trace_arg + "." + workload_name(w) : trace_arg;
  };

  try {
    if (regen) return regen_expected(opt);
    if (smoke) return smoke_main(opt);
    std::vector<Workload> todo;
    if (all) {
      todo.assign(kWorkloads.begin(), kWorkloads.end());
    } else {
      todo.push_back(opt.workload);
    }
    std::vector<RunResult> results;
    for (const Workload w : todo) {
      RunOptions one = opt;
      one.workload = w;
      one.trace_out = trace_path(w);
      results.push_back(run_workload(one));
      std::fputs(result_table(results.back()).c_str(), stdout);
      std::fflush(stdout);
      if (g_stop.load()) break;
    }
    if (!out_path.empty()) {
      std::string text = results.size() == 1 ? "" : "[\n";
      for (std::size_t i = 0; i < results.size(); ++i) {
        text += result_record(results[i]);
        text += i + 1 < results.size() ? ",\n" : "\n";
      }
      if (results.size() != 1) text += "]\n";
      if (!mcan::write_text_file(out_path, text)) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n", out_path.c_str());
        return 2;
      }
    }
    if (g_stop.load()) {
      std::fprintf(stderr, "bench_e2e: interrupted\n");
      return 130;
    }
    std::printf("%s\n", (results.size() == 1 ? result_line(results.front())
                                             : combined_line(results))
                            .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
  return 0;
}
