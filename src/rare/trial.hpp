// One rare-event trial: the probe bus (scenario/probe.hpp: the model
// checker's tagged frame, transmitted by node 0 to N-1 receivers),
// executed under the importance-sampling injector and judged with the
// delivery verdict (analysis/verdict.hpp: IMO / duplicate / total loss /
// timeout), the same function the model checker and the DSL use.
//
// Trials in tail-only mode share a clean-prefix template (PrefixState):
// one bus is stepped (fault-free) to the start of the flip window, and
// every trial starts from a cloned copy — the same machinery the model
// checker uses for prefix cloning.  The skipped Bernoulli draws are folded
// into the trial's likelihood ratio analytically, so the estimator is
// exactly the one a full from-bit-0 simulation would produce for
// tail-window events.
#pragma once

#include "rare/bias.hpp"
#include "scenario/probe.hpp"

namespace mcan {

/// Per-campaign constants: the probe setup (frame, EOF anchor, cloning
/// cut) plus the resolved bias profile.
struct ProbePlan : ProbeSetup {
  double ber_star = 0;       ///< nominal per-node per-bit probability
  BiasProfile bias;          ///< resolved window + proposal
  BitTime quiet_budget = 30000;

  /// Resolve the plan: probe frame, EOF anchor, bias window defaults, and
  /// the clone cut (only in tail-only mode, where the prefix is provably
  /// clean under the proposal).
  [[nodiscard]] static ProbePlan make(const ProtocolParams& protocol,
                                      int n_nodes, double ber,
                                      BiasProfile bias,
                                      BitTime quiet_budget = 30000);

  /// Bernoulli draws skipped by starting at t_first instead of bit 0.
  [[nodiscard]] long long prefix_draws() const {
    return static_cast<long long>(n_nodes) * static_cast<long long>(t_first);
  }
};

/// A judged trial and its importance weight.
struct TrialOutcome : Verdict {
  double llr = 0;  ///< log importance weight of the whole run
};

/// Run one importance-sampled trial.  `prefix` may be null only when
/// plan.t_first == 0 (full simulation from bit 0).  `rng` is the trial's
/// private stream — the caller derives it as Rng(seed, trial_index) so
/// results are independent of scheduling.
[[nodiscard]] TrialOutcome run_biased_trial(const ProbePlan& plan,
                                            const PrefixState* prefix,
                                            Rng rng);

}  // namespace mcan
