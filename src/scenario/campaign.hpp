// Randomised fault-injection campaigns.
//
// Two drivers:
//
//  * run_eof_campaign — the controlled experiment behind the paper's claim
//    "MajorCAN_m implements Atomic Broadcast in the presence of up to m
//    randomly distributed errors per frame": one broadcast per trial, an
//    exact number of view-flips placed uniformly at random (over nodes and
//    over a bit window), and a consistency verdict per trial.
//
//  * run_soak — a long-running bus with several periodic senders and iid
//    per-node per-bit disturbances at rate ber* (the paper's error model),
//    checked against AB1..AB5 at the end.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/properties.hpp"
#include "core/protocol.hpp"
#include "higher/higher_network.hpp"

namespace mcan {

enum class FaultWindow {
  FrameTail,        ///< the EOF end-game region where the paper's scenarios live
  WholeFrame,       ///< anywhere in the frame
  TailAndRecovery,  ///< end-game plus delimiter/intermission (ablation probes)
};

struct CampaignConfig {
  ProtocolParams protocol;
  int n_nodes = 5;
  int trials = 1000;
  int errors = 2;  ///< exact number of view-flips injected per trial
  FaultWindow window = FaultWindow::FrameTail;
  std::uint64_t seed = 1;
  bool crash_tx_randomly = false;  ///< with p=0.5, crash tx at a random bit
};

struct CampaignResult {
  CampaignConfig cfg;
  int trials = 0;
  int imo = 0;           ///< trials violating agreement (incl. vs the sender)
  int double_rx = 0;     ///< trials where some receiver got duplicates
  int total_loss = 0;    ///< sender holds it, nobody delivered (also an IMO)
  int retransmissions = 0;  ///< total retransmission events
  int timeouts = 0;      ///< bus failed to quiesce (should stay 0)

  [[nodiscard]] double imo_rate() const {
    return trials ? static_cast<double>(imo) / trials : 0.0;
  }
  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] CampaignResult run_eof_campaign(const CampaignConfig& cfg);

/// Same campaign, trials distributed over `threads` worker threads
/// (0 = hardware concurrency).  Results are identical to the serial run.
[[nodiscard]] CampaignResult run_eof_campaign_parallel(
    const CampaignConfig& cfg, unsigned threads = 0);

// --- higher-level baselines under the same randomized disturbances ---

struct HigherCampaignConfig {
  HigherKind kind = HigherKind::Edcan;
  int n_nodes = 5;
  int trials = 500;
  int errors = 2;  ///< view-flips in the DATA frame's tail window
  std::uint64_t seed = 1;
  bool crash_tx_randomly = false;
  BitTime timeout_bits = 600;  ///< host protocol timeout
};

struct HigherCampaignResult {
  HigherCampaignConfig cfg;
  int trials = 0;
  int agreement_violations = 0;  ///< trials with an AB2 violation
  int duplicate_trials = 0;      ///< trials with an AB3 violation
  int order_trials = 0;          ///< trials with an AB5 violation
  int timeouts = 0;

  [[nodiscard]] std::string summary() const;
};

/// One tagged broadcast per trial over the chosen baseline protocol, with
/// `errors` random flips in the DATA frame's end-of-frame window (and an
/// optional random transmitter crash); the app-level journals are checked
/// against AB1..AB5.
[[nodiscard]] HigherCampaignResult run_higher_campaign(
    const HigherCampaignConfig& cfg);

struct SoakConfig {
  ProtocolParams protocol;
  int n_nodes = 8;
  int senders = 4;           ///< nodes 0..senders-1 broadcast periodically
  int frames_per_sender = 50;
  int period_bits = 400;     ///< enqueue period per sender
  double ber_star = 1e-4;    ///< per-node per-bit flip probability
  std::uint64_t seed = 1;
};

struct SoakResult {
  SoakConfig cfg;
  AbReport report;
  int frames_broadcast = 0;
  long long errors_injected = 0;
  BitTime duration_bits = 0;

  [[nodiscard]] std::string summary() const;
};

[[nodiscard]] SoakResult run_soak(const SoakConfig& cfg);

}  // namespace mcan
