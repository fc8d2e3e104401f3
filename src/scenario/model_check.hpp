// The model-checking engine: scalable bounded exhaustive verification —
// the "model checking" the paper left as future work, done on the
// executable protocol model.
//
// For a given protocol, node count and error budget k, the engine visits
// *every* combination of k view-flips over the (node x frame-tail-bit)
// grid, runs the bus to quiescence and judges each case with the delivery
// verdict (analysis/verdict.hpp).  Within the paper's scenario space this
// is complete: if no pattern up to k errors violates agreement /
// at-most-once, none exists (for that bus size and window).  Standard CAN
// and MinorCAN produce concrete counterexample sets (the Fig. 1b/3a
// patterns fall out automatically); MajorCAN_m must produce none up to
// k = m.
//
// Simulating every case from bit 0 is the reference semantics
// (ModelCheckConfig::reference()), but it wastes nearly all of its work:
// every case shares the same clean frame prefix, huge numbers of flip
// patterns converge to identical machine states once the flip window has
// passed, and any two cases that differ only by a permutation of the
// (identical) receiver nodes are relabelings of each other.  The engine
// exploits all three structures without changing what is counted:
//
//   * prefix cloning — one template bus is stepped through the clean
//     prefix once; each case starts from a cloned copy of its state
//     (scenario/probe.hpp: PrefixState + clone_bus);
//   * tail memoization — after the last possible flip the bus evolves
//     deterministically, so the quiescence tail is keyed on the exact
//     serialized machine state of all nodes (append_state) and each
//     distinct end-game state is simulated once;
//   * symmetry reduction — receiver nodes are interchangeable, so only a
//     canonical representative per receiver-permutation orbit is run and
//     its outcome is counted with the orbit size as weight;
//   * work distribution — each first-flip subtree is one parallel_for
//     task (util/parallel.hpp) that worker threads claim dynamically
//     (cheap work stealing), so uneven subtree cost does not serialise
//     the sweep; per-subtree tallies merge in subtree order.
//
// The reference configuration (jobs=1, dedup=false, symmetry=false) has a
// deterministic lexicographic visit order; tests assert exact agreement
// of the optimised modes against it.  docs/MODEL_CHECKING.md carries the
// soundness argument for each reduction.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "scenario/probe.hpp"

namespace mcan {

struct ExhaustiveConfig {
  ProtocolParams protocol;
  int n_nodes = 3;
  int errors = 2;      ///< exact number of flips per case
  /// Window of EOF-relative positions to flip, inclusive on both ends.
  /// Default [-4, auto] covers the tail, the EOF and the whole end-game.
  int win_lo_rel = -4;
  /// Upper window bound; disengaged = auto: 3m+5 for MajorCAN (covers the
  /// whole end-game), EOF + intermission for the others.
  std::optional<int> win_hi_rel;

  /// The effective upper bound (resolves the auto default).
  [[nodiscard]] int window_hi() const;

  /// Throws std::invalid_argument on an unusable configuration: an empty
  /// window (win_lo_rel > window_hi()), positions outside the end-game
  /// horizon the EOF-relative grid is meaningful for, a window starting
  /// before the probe frame itself, or degenerate node/error counts.
  void validate() const;
};

struct Counterexample {
  std::vector<std::pair<NodeId, int>> flips;  ///< (node, EOF-relative pos)
  std::string outcome;                        ///< e.g. "IMO: deliveries 0 1"

  [[nodiscard]] std::string to_string() const;
};

struct ModelCheckConfig {
  ExhaustiveConfig base;

  /// Worker threads; 0 = one per hardware thread (resolve_jobs).  Each
  /// first-flip subtree is one task and the tallies merge in subtree
  /// order, so on a complete sweep the counts and the kept examples are
  /// identical for every value; a max_cases-bounded sweep explores a
  /// schedule-dependent prefix when jobs > 1.  jobs=1 runs inline.
  int jobs = 0;

  /// Tail memoization + prefix cloning.
  bool dedup = true;

  /// Receiver-permutation symmetry reduction.
  bool symmetry = true;

  /// Budget: stop after checking this many flip patterns (0 = exhaustive).
  /// A budget-cut result has complete == false and reports the explored
  /// prefix of the space — useful for k beyond exhaustive reach (k = 5 at
  /// m = 5).
  long long max_cases = 0;

  /// How many concrete counterexamples to keep.
  int max_examples = 5;

  /// The reference enumerator over `base`: one worker, no reductions,
  /// every case simulated from bit 0 in lexicographic order.
  [[nodiscard]] static ModelCheckConfig reference(const ExhaustiveConfig& base,
                                                  int max_examples = 5);

  /// Throws std::invalid_argument on unusable values (delegates to
  /// base.validate() for the window checks).
  void validate() const;
};

struct ModelCheckStats {
  long long enumerated = 0;      ///< combinations visited (incl. skipped)
  long long simulated = 0;       ///< cases actually run on a bus
  long long tail_memo_hits = 0;  ///< cases finished from a memoized tail
  long long symmetry_skips = 0;  ///< non-canonical combos folded into orbits
  std::size_t distinct_tails = 0;  ///< memo table size at the end
  int jobs = 1;                    ///< worker threads actually used
  double seconds = 0.0;            ///< wall-clock time of the sweep
};

struct ModelCheckResult {
  ExhaustiveConfig cfg;  ///< window bound resolved
  bool complete = true;  ///< false iff the max_cases budget cut the sweep
  long long cases = 0;   ///< flip patterns covered (orbit weights included)
  /// Per-class counts; a case can fall in several classes (a total loss is
  /// always an IMO too).
  long long imo = 0;
  long long double_rx = 0;
  long long total_loss = 0;
  long long timeouts = 0;
  long long violating = 0;  ///< cases in at least one class
  std::vector<Counterexample> examples;
  ModelCheckStats stats;

  /// Violating cases, each counted once.
  [[nodiscard]] long long violations() const { return violating; }
  [[nodiscard]] std::string summary() const;
};

/// Periodic progress callback: (combinations visited, total combinations).
/// Called from worker threads — must be thread-safe (ProgressMeter is).
using CheckProgressFn = std::function<void(long long, long long)>;

[[nodiscard]] ModelCheckResult run_model_check(
    const ModelCheckConfig& cfg, const CheckProgressFn& progress = {});

// ---------------------------------------------------------------------------
// Single-case execution (shared with the counterexample minimizer, the
// attack optimizer and tests): one concrete flip pattern, simulated in
// isolation with the reference semantics.
// ---------------------------------------------------------------------------

struct FlipCaseResult : Verdict {
  std::string describe;  ///< classification text ("IMO: deliveries 0 1")
};

/// Run one flip pattern (EOF-relative positions, same grid as the sweeps)
/// to quiescence and classify it.
[[nodiscard]] FlipCaseResult run_flip_case(
    const ProtocolParams& protocol, int n_nodes,
    const std::vector<std::pair<NodeId, int>>& flips);

}  // namespace mcan
