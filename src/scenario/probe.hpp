// The probe bus: node 0 broadcasts one tagged frame to N-1 receivers.  It
// is the unit of work of every single-broadcast engine — model-check
// cases, rare-event trials and splitting particles, the randomised EOF
// campaign — and this header holds what they share about it:
//
//   * the probe frame and its EOF anchor;
//   * the clean-prefix template (a bus stepped fault-free to the start of
//     the flip window) and clone_bus, the one routine that copies a bus's
//     machine state (CanController::clone_runtime_state) and warps the
//     clock (Simulator::warp_to);
//   * read_counts, the one reader of per-node deliveries plus the sender's
//     TxSuccess count.  A cloned bus starts with empty journals, so its
//     counts are offsets on top of its source's: the source's counts are
//     passed in as the base;
//   * finish_probe: run to quiescence and read the counts, which the
//     delivery verdict (analysis/verdict.hpp) then judges.
#pragma once

#include <memory>
#include <vector>

#include "analysis/verdict.hpp"
#include "core/network.hpp"

namespace mcan {

/// The probe frame every single-broadcast engine transmits (also what .scn
/// exports replay: id 0x100, dlc 4).
[[nodiscard]] Frame probe_frame();

/// Absolute bit time of the probe frame's first EOF bit on a clean bus —
/// the anchor that converts EOF-relative flip positions to the absolute
/// times used by the injector and by .scn exports.
[[nodiscard]] int model_check_eof_start(const ProtocolParams& protocol);

/// Where a probe run starts: the bus, the probe frame and the clone cut.
struct ProbeSetup {
  ProtocolParams protocol;
  int n_nodes = 3;
  Frame frame;          ///< the probe frame
  int eof_start = 0;    ///< absolute bit of the frame's first EOF bit
  BitTime t_first = 0;  ///< clean-prefix cut (0 = simulate from bit 0)
};

/// What a probe run left in the journals.
struct ProbeCounts {
  std::vector<int> deliveries;  ///< per node
  int tx_success = 0;           ///< TxSuccess events at the sender (node 0)
  bool timeout = false;         ///< the bus did not quiesce

  /// Add (subtract) another stretch of the same run; += also carries its
  /// timeout.
  ProbeCounts& operator+=(const ProbeCounts& o);
  ProbeCounts& operator-=(const ProbeCounts& o);

  [[nodiscard]] Verdict verdict(bool sender_crashed = false) const {
    return judge_delivery(deliveries, 0, tx_success, sender_crashed, timeout);
  }
};

/// The counts in `net`'s journals, on top of `base` when given.
[[nodiscard]] ProbeCounts read_counts(Network& net,
                                      const ProbeCounts* base = nullptr);

/// The clean-prefix template: a bus with the probe enqueued, stepped
/// without faults to t_first, plus the counts accumulated on the way
/// (nonzero when the cut lies after the frame's acceptance point).
/// Immutable after construction; safe to clone from concurrently.
struct PrefixState {
  Network net;
  ProbeCounts counts;

  explicit PrefixState(const ProbeSetup& setup);
};

/// Make the fresh bus `dst` (same shape as `src`) continue from `src`'s
/// machine state and clock.  Journals are not copied: read `dst`'s counts
/// on top of `src`'s.
void clone_bus(Network& dst, const Network& src);

/// Put a freshly built bus at the setup's start: a clone of `prefix` at
/// t_first, or — without a prefix — bit 0 with the probe frame enqueued.
void start_probe(Network& net, const ProbeSetup& setup,
                 const PrefixState* prefix);

/// start_probe on a heap-allocated bus (trials and particles).
[[nodiscard]] std::unique_ptr<Network> make_trial_bus(
    const ProbeSetup& setup, const PrefixState* prefix);

/// Run `net` until quiet (at most `quiet_budget` bits) and read its counts
/// on top of `base`.
[[nodiscard]] ProbeCounts finish_probe(Network& net, const ProbeCounts* base,
                                       BitTime quiet_budget);

}  // namespace mcan
