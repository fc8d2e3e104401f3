#include "analysis/verdict.hpp"

namespace mcan {

Verdict judge_delivery(const std::vector<int>& deliveries, NodeId sender,
                       int tx_success, bool sender_crashed, bool timeout) {
  Verdict v;
  if (timeout) {
    v.timeout = true;
    return v;
  }
  bool any = false;
  bool all = true;
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    if (static_cast<NodeId>(i) == sender) continue;
    const int c = deliveries[i];
    if (c > 0) any = true;
    if (c == 0) all = false;
    if (c > 1) v.dup = true;
  }
  const bool sender_has = tx_success > 0 && !sender_crashed;
  v.imo = (any || sender_has) && !all;
  v.loss = !any && sender_has;
  return v;
}

std::string describe_verdict(const Verdict& v,
                             const std::vector<int>& deliveries,
                             NodeId sender) {
  if (v.timeout) return "TIMEOUT";
  // A loss is always an imo as well, so these two cover every violation.
  if (!v.imo && !v.dup) return "";
  std::string s = v.imo ? "IMO: deliveries" : "double reception: deliveries";
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    if (static_cast<NodeId>(i) == sender) continue;
    s += ' ';
    s += std::to_string(deliveries[i]);
  }
  return s;
}

Verdict ScenarioOutcome::verdict() const {
  return judge_delivery(deliveries, tx_node, tx_success, tx_crashed, false);
}

bool ScenarioOutcome::consistent_single_delivery() const {
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    if (static_cast<NodeId>(i) != tx_node && deliveries[i] != 1) return false;
  }
  return true;
}

std::string ScenarioOutcome::summary() const {
  std::string s = name + " [" + protocol.name() + "]: deliveries per node =";
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    s += ' ';
    if (static_cast<NodeId>(i) == tx_node) {
      s += "tx";
    } else {
      s += std::to_string(deliveries[i]);
    }
  }
  s += "; tx attempts=" + std::to_string(tx_attempts);
  s += " successes=" + std::to_string(tx_success);
  if (tx_crashed) s += " (tx crashed)";
  const Verdict v = verdict();
  if (v.loss) s += " => INCONSISTENT MESSAGE OMISSION (total loss)";
  else if (v.imo) s += " => INCONSISTENT MESSAGE OMISSION";
  else if (v.dup) s += " => DOUBLE RECEPTION";
  else if (consistent_single_delivery()) s += " => consistent (exactly once)";
  else s += " => consistent";
  return s;
}

}  // namespace mcan
