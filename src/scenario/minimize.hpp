// Counterexample minimization and .scn export.
//
// A violating flip pattern found by the sweep may contain flips that do
// not contribute to the violation (k=3 patterns routinely embed the k=2
// core).  minimize_counterexample() delta-debugs the pattern down to a
// minimal set — greedy removal to a fixpoint, re-running the bus after
// each candidate removal — while preserving the *class* of the violation:
// dropping a flip from a CAN k=2 IMO pattern typically leaves the Fig. 1b
// double-reception, which is still a violation but not the scenario being
// explained, so "still violates somehow" is not good enough.
//
// The minimized pattern is exported as a .scn scenario (scenario/dsl.hpp)
// that replays through run_scenario and mcan-lint and asserts the same
// verdict, closing the loop with the invariant analyzer: every
// counterexample the checker reports is independently reproducible from a
// committed data file.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "scenario/model_check.hpp"

namespace mcan {

enum class ViolationClass {
  None,
  Imo,       ///< inconsistent message omission
  DoubleRx,  ///< duplicate delivery at some receiver
  TotalLoss, ///< transmitter believes success, nobody delivered
  Timeout,   ///< bus never quiesced
};

[[nodiscard]] const char* violation_class_name(ViolationClass c);

/// Classify one flip pattern by running it (priority: IMO > double-rx >
/// total-loss > timeout, matching the sweep's reporting priority).
[[nodiscard]] ViolationClass classify_flip_pattern(
    const ProtocolParams& protocol, int n_nodes,
    const std::vector<std::pair<NodeId, int>>& flips);

struct MinimizedCounterexample {
  std::vector<std::pair<NodeId, int>> flips;  ///< the minimal set
  ViolationClass cls = ViolationClass::None;
  std::string outcome;  ///< classification text of the minimal pattern
  int runs = 0;         ///< simulations spent minimizing
};

/// Delta-debug `flips` to a minimal subset with the same violation class.
/// If the input does not violate at all, returns it unchanged with
/// cls == None.
[[nodiscard]] MinimizedCounterexample minimize_counterexample(
    const ProtocolParams& protocol, int n_nodes,
    const std::vector<std::pair<NodeId, int>>& flips);

/// Render a (minimized) counterexample as a .scn scenario replaying the
/// same probe frame with the same flips — addressed by absolute bit time,
/// which is exact regardless of how earlier flips shift later frame-
/// relative positions — and expecting the violation class's verdict
/// (IMO -> `expect imo`, double-rx -> `expect double`, others -> `expect
/// any`, since the DSL has no total-loss/timeout expectation).
[[nodiscard]] std::string to_scenario_text(const ProtocolParams& protocol,
                                           int n_nodes,
                                           const MinimizedCounterexample& ce,
                                           const std::string& title);

struct ReplayResult {
  bool parsed = false;
  bool expectation_met = false;
  bool invariants_clean = false;
  std::string detail;
};

/// Parse and replay a scenario text through run_scenario (the same path
/// mcan-lint uses for .scn files) and report whether the expected verdict
/// reproduced and the protocol invariants held.
[[nodiscard]] ReplayResult replay_scenario_text(const std::string& text);

}  // namespace mcan
