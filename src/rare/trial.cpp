#include "rare/trial.hpp"

#include <stdexcept>

namespace mcan {

ProbePlan ProbePlan::make(const ProtocolParams& protocol, int n_nodes,
                          double ber, BiasProfile bias, BitTime quiet_budget) {
  protocol.validate();
  if (n_nodes < 2) {
    throw std::invalid_argument("rare: n_nodes must be >= 2, got " +
                                std::to_string(n_nodes));
  }
  if (!(ber > 0.0) || ber > 1.0) {
    throw std::invalid_argument("rare: ber must be in (0, 1]");
  }
  ProbePlan plan;
  plan.protocol = protocol;
  plan.n_nodes = n_nodes;
  plan.ber_star = ber / n_nodes;
  bias.resolve(protocol);
  bias.validate();
  plan.bias = bias;
  plan.frame = probe_frame();
  plan.eof_start = model_check_eof_start(protocol);
  plan.quiet_budget = quiet_budget;
  if (bias.base <= 0.0) {
    // Tail-only: the prefix is clean under the proposal with certainty, so
    // it can be simulated once and cloned.  (The window never starts
    // before the frame: eof_start + win_lo_rel >= 0 is enforced here.)
    const int cut = plan.eof_start + bias.win_lo_rel;
    if (cut < 0) {
      throw std::invalid_argument(
          "rare: bias window starts before the probe frame (win_lo_rel=" +
          std::to_string(bias.win_lo_rel) + ")");
    }
    plan.t_first = static_cast<BitTime>(cut);
  } else {
    plan.t_first = 0;  // flips possible anywhere: simulate from bit 0
  }
  return plan;
}

TrialOutcome run_biased_trial(const ProbePlan& plan, const PrefixState* prefix,
                              Rng rng) {
  if (!prefix && plan.t_first != 0) {
    throw std::logic_error("rare: plan expects a prefix template");
  }
  std::unique_ptr<Network> net = make_trial_bus(plan, prefix);
  BiasedFaults inj(plan.ber_star, plan.bias, plan.eof_start, rng);
  if (prefix) inj.account_clean_prefix(plan.prefix_draws());
  net->set_injector(inj);

  const Verdict v = finish_probe(*net, prefix ? &prefix->counts : nullptr,
                                 plan.quiet_budget)
                        .verdict();
  return {v, inj.llr()};
}

}  // namespace mcan
