// Bounded exhaustive verification — executing the "model checking" the
// paper announced as future work (§6) against the executable protocol
// model: every combination of k view-flips over the frame-tail window is
// run and classified.  Within this window and bus size the result is
// complete: a 0 row is a proof, a non-0 row comes with concrete
// counterexamples (the Fig. 1b / Fig. 3a patterns are rediscovered
// automatically).
//
// This bench deliberately runs the *reference* configuration of the
// engine (ModelCheckConfig::reference: single worker, no reductions);
// bench_model_check benchmarks the optimised modes against it.
#include <cstdio>

#include "scenario/model_check.hpp"
#include "scenario/sweep_cli.hpp"
#include "util/progress.hpp"
#include "util/text.hpp"

int main(int argc, char** argv) {
  using namespace mcan;

  SweepOptions opt;
  std::vector<std::string> rest;
  std::string error;
  if (!parse_sweep_args(argc, argv, opt, rest, error)) {
    std::fprintf(stderr, "bench_exhaustive: %s\n", error.c_str());
    return 2;
  }
  for (const std::string& a : rest) {
    std::fprintf(stderr, "bench_exhaustive: unknown option %s\n%s", a.c_str(),
                 sweep_flags_help());
    return 2;
  }
  const int max_k = opt.max_k;

  std::printf("=== Exhaustive verification over the frame-tail window ===\n");
  std::printf("%d-node bus; every combination of k view-flips over\n",
              opt.n_nodes);
  std::printf("(node x EOF-relative position); entries IMO/double-rx/loss\n\n");

  std::vector<std::vector<std::string>> rows;
  {
    std::vector<std::string> head = {"protocol"};
    for (int k = 1; k <= max_k; ++k) {
      head.push_back("k=" + std::to_string(k) + " (cases)");
    }
    rows.push_back(head);
  }

  std::vector<std::string> example_lines;
  for (const auto& proto : opt.protocol_set()) {
    std::vector<std::string> row = {proto.name()};
    for (int k = 1; k <= max_k; ++k) {
      // Reference engine configuration, plus a progress meter for the
      // long high-k sweeps.
      ExhaustiveConfig base;
      base.protocol = proto;
      base.n_nodes = opt.n_nodes;
      base.errors = k;
      if (opt.win_lo) base.win_lo_rel = *opt.win_lo;
      if (opt.win_hi) base.win_hi_rel = *opt.win_hi;
      const ModelCheckConfig mc = ModelCheckConfig::reference(base, 2);

      ModelCheckResult res;
      if (opt.progress) {
        ProgressMeter meter(proto.name() + " k=" + std::to_string(k));
        res = run_model_check(mc, [&meter](long long done, long long total) {
          meter.set_total(total);
          meter.update(done);
        });
        meter.finish();
      } else {
        res = run_model_check(mc);
      }
      row.push_back(std::to_string(res.imo) + "/" +
                    std::to_string(res.double_rx) + "/" +
                    std::to_string(res.total_loss) + " (" +
                    std::to_string(res.cases) + ")");
      if (!res.examples.empty() && k <= 2) {
        example_lines.push_back(proto.name() + ", k=" + std::to_string(k) +
                                ": " + res.examples.front().to_string());
      }
    }
    rows.push_back(row);
  }
  std::printf("%s\n", render_table(rows).c_str());

  if (!example_lines.empty()) {
    std::printf("first counterexamples found:\n");
    for (const auto& l : example_lines) std::printf("  %s\n", l.c_str());
  }

  std::printf(
      "\nreading: MajorCAN_m rows are complete verification results for\n"
      "this window — zero violating patterns up to the enumerated k.  The\n"
      "CAN counterexamples at k=1 are the double-reception pattern (Fig.\n"
      "1b); at k=2 the enumerator rediscovers the paper's new scenario\n"
      "(Fig. 3a) among others.  MinorCAN's k=2 counterexamples are the\n"
      "Fig. 3b pattern.\n");
  return 0;
}
