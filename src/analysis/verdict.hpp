// The delivery verdict: did one broadcast of one frame reach its receivers
// consistently?  Every engine that judges a single probe broadcast — the
// model checker, rare-event trials and splitting, the randomised EOF
// campaign, the DSL runner and the figure scenarios — asks this one
// function, so they cannot disagree on what a violation is.
//
// In terms of the Atomic Broadcast properties (analysis/properties.hpp):
//
//   imo     AB1 validity or AB2 agreement broken for the frame: some holder
//           has it and some receiver lacks it.  The sender is a holder iff
//           it logged TxSuccess and did not crash — it believes the frame
//           is out and will not send it again.
//   dup     AB3 at-most-once broken: some receiver delivered it twice.
//   loss    the sender holds it and no receiver does.  For N >= 2 such a
//           run is always also an imo; it is reported on its own because
//           it is the pure validity (AB1) case.
//   timeout the bus never went quiet; no other class is judged.
//
// AB4 and AB5 need tagged journals and more than one message; the DSL and
// the fuzz oracle check them with check_atomic_broadcast.
#pragma once

#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "util/bit.hpp"

namespace mcan {

struct Verdict {
  bool imo = false;
  bool dup = false;
  bool loss = false;
  bool timeout = false;

  [[nodiscard]] bool violation() const { return imo || dup || loss || timeout; }
  [[nodiscard]] bool operator==(const Verdict&) const = default;
};

/// Judge one broadcast.  `deliveries[i]` is the number of copies node i
/// delivered; the sender's own entry is ignored.
[[nodiscard]] Verdict judge_delivery(const std::vector<int>& deliveries,
                                     NodeId sender, int tx_success,
                                     bool sender_crashed, bool timeout);

/// Counterexample text for a violating verdict ("IMO: deliveries 0 1",
/// "double reception: deliveries 2 1", "TIMEOUT"), empty for a clean one.
/// Receivers' counts are listed in node order.
[[nodiscard]] std::string describe_verdict(const Verdict& v,
                                           const std::vector<int>& deliveries,
                                           NodeId sender);

/// One scripted broadcast as the figure scenarios and the DSL report it:
/// who accepted the frame how many times, whether the transmitter
/// retransmitted, and a rendered timeline.
struct ScenarioOutcome {
  std::string name;
  ProtocolParams protocol;
  int n_nodes = 0;
  NodeId tx_node = 0;

  std::vector<int> deliveries;  ///< per node: copies of the frame delivered
  int tx_success = 0;           ///< TxSuccess events at the transmitter
  int tx_attempts = 0;          ///< SofSent events at the transmitter
  bool tx_crashed = false;
  bool faults_all_fired = false;  ///< scenario script sanity
  std::string trace;              ///< rendered timeline
  std::vector<std::string> notes;

  /// The delivery verdict (never a timeout: the runners report quiescence
  /// separately).
  [[nodiscard]] Verdict verdict() const;

  /// Inconsistent message omission: some holder (a receiver, or a sender
  /// that believes it succeeded) has the frame and some receiver lacks it.
  [[nodiscard]] bool imo() const { return verdict().imo; }

  /// Any receiver delivered the frame more than once.
  [[nodiscard]] bool double_reception() const { return verdict().dup; }

  /// Every receiver delivered exactly once.
  [[nodiscard]] bool consistent_single_delivery() const;

  [[nodiscard]] std::string summary() const;
};

}  // namespace mcan
