#include "scenario/model_check.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "core/network.hpp"
#include "fault/scripted.hpp"
#include "util/mutex.hpp"
#include "util/parallel.hpp"

namespace mcan {

int ExhaustiveConfig::window_hi() const {
  if (win_hi_rel) return *win_hi_rel;
  if (protocol.variant == Variant::MajorCan) return 3 * protocol.m + 5;
  return protocol.eof_bits() + 3;  // EOF + intermission
}

void ExhaustiveConfig::validate() const {
  protocol.validate();
  if (n_nodes < 2 || n_nodes > 16) {
    throw std::invalid_argument(
        "exhaustive: n_nodes must be in [2, 16], got " +
        std::to_string(n_nodes));
  }
  if (errors < 1) {
    throw std::invalid_argument(
        "exhaustive: error budget k must be >= 1, got " +
        std::to_string(errors));
  }
  const int hi = window_hi();
  if (win_lo_rel > hi) {
    throw std::invalid_argument(
        "exhaustive: empty flip window: win_lo_rel (" +
        std::to_string(win_lo_rel) + ") > win_hi_rel (" + std::to_string(hi) +
        ")");
  }
  // The EOF-relative grid only addresses bits of the probe frame and its
  // end-game; beyond the delimiter + intermission everything is bus-idle
  // and a flip would hit the retransmission instead of the episode the
  // sweep reasons about.
  const int end_horizon =
      (protocol.variant == Variant::MajorCan ? protocol.sample_end()
                                             : protocol.eof_bits() - 1) +
      protocol.error_delim_total() + 3;
  if (hi > end_horizon) {
    throw std::invalid_argument(
        "exhaustive: win_hi_rel (" + std::to_string(hi) +
        ") is past the end-game horizon (" + std::to_string(end_horizon) +
        ") for " + protocol.name());
  }
  const int eof_start = model_check_eof_start(protocol);
  if (win_lo_rel < -eof_start) {
    throw std::invalid_argument(
        "exhaustive: win_lo_rel (" + std::to_string(win_lo_rel) +
        ") starts before the probe frame (EOF-relative " +
        std::to_string(-eof_start) + " is bit time 0)");
  }
}

std::string Counterexample::to_string() const {
  std::string s = "flips:";
  for (const auto& [node, pos] : flips) {
    s += " (node " + std::to_string(node) + ", EOF" +
         (pos >= 0 ? "+" : "") + std::to_string(pos) + ")";
  }
  s += " => " + outcome;
  return s;
}

ModelCheckConfig ModelCheckConfig::reference(const ExhaustiveConfig& base,
                                             int max_examples) {
  ModelCheckConfig mc;
  mc.base = base;
  mc.jobs = 1;
  mc.dedup = false;
  mc.symmetry = false;
  mc.max_examples = max_examples;
  return mc;
}

void ModelCheckConfig::validate() const {
  base.validate();
  if (max_cases < 0) {
    throw std::invalid_argument("model check: max_cases must be >= 0");
  }
  if (max_examples < 0) {
    throw std::invalid_argument("model check: max_examples must be >= 0");
  }
}

std::string ModelCheckResult::summary() const {
  std::string s = cfg.protocol.name();
  s += " nodes=" + std::to_string(cfg.n_nodes);
  s += " k=" + std::to_string(cfg.errors);
  s += " cases=" + std::to_string(cases);
  if (!complete) s += " (budget-bounded)";
  s += " | IMO=" + std::to_string(imo);
  s += " double-rx=" + std::to_string(double_rx);
  s += " total-loss=" + std::to_string(total_loss);
  if (timeouts) s += " TIMEOUTS=" + std::to_string(timeouts);
  if (violations() == 0) {
    s += complete ? " => VERIFIED CONSISTENT" : " => no violation found";
  } else {
    s += " => COUNTEREXAMPLES";
  }
  return s;
}

namespace {

/// Per-sweep constants, computed once.  The probe setup's t_first is the
/// absolute time of the earliest possible flip.
struct SweepPlan : ProbeSetup {
  ExhaustiveConfig cfg;  ///< window resolved
  std::vector<std::pair<NodeId, int>> slots;
  BitTime t_cut = 0;    ///< first bit strictly after the flip window
  long long total_combos = 0;
};

long long n_choose_k(std::size_t n, int k) {
  if (k < 0 || static_cast<std::size_t>(k) > n) return 0;
  long long r = 1;
  for (int i = 1; i <= k; ++i) {
    r = r * static_cast<long long>(n - static_cast<std::size_t>(k) + i) / i;
  }
  return r;
}

/// The probe setup for `cfg` (clone cut still at bit 0).
SweepPlan make_probe(const ExhaustiveConfig& cfg) {
  SweepPlan plan;
  plan.protocol = cfg.protocol;
  plan.n_nodes = cfg.n_nodes;
  plan.frame = probe_frame();
  plan.eof_start = model_check_eof_start(cfg.protocol);
  plan.cfg = cfg;
  return plan;
}

SweepPlan make_plan(const ExhaustiveConfig& cfg) {
  SweepPlan plan = make_probe(cfg);
  plan.cfg.win_hi_rel = cfg.window_hi();
  for (int n = 0; n < cfg.n_nodes; ++n) {
    for (int pos = cfg.win_lo_rel; pos <= *plan.cfg.win_hi_rel; ++pos) {
      plan.slots.emplace_back(static_cast<NodeId>(n), pos);
    }
  }
  plan.t_first = static_cast<BitTime>(plan.eof_start + cfg.win_lo_rel);
  plan.t_cut = static_cast<BitTime>(plan.eof_start + *plan.cfg.win_hi_rel + 1);
  plan.total_combos = n_choose_k(plan.slots.size(), cfg.errors);
  return plan;
}

constexpr BitTime kQuietBudget = 30000;

void inject_flips(ScriptedFaults& inj, const SweepPlan& plan,
                  const std::vector<std::pair<NodeId, int>>& flips) {
  for (const auto& [node, pos] : flips) {
    inj.add(FaultTarget::at_time(
        node, static_cast<BitTime>(plan.eof_start + pos)));
  }
}

/// Reference execution: fresh bus, full run from bit 0.
ProbeCounts run_full_case(const SweepPlan& plan,
                          const std::vector<std::pair<NodeId, int>>& flips) {
  Network net(plan.n_nodes, plan.protocol);
  ScriptedFaults inj;
  inject_flips(inj, plan, flips);
  net.set_injector(inj);
  start_probe(net, plan, nullptr);
  return finish_probe(net, nullptr, kQuietBudget);
}

// ---------------------------------------------------------------------------
// dedup machinery: tail memo over the shared prefix template
// ---------------------------------------------------------------------------

/// Sharded exact-key memo of simulation tails: what happens between the
/// dedup cut and quiescence, as count deltas.  Keys are the concatenated
/// append_state() digests of all nodes at t_cut — exact serializations, so
/// equal keys mean bit-identical futures (no hash-collision risk: the map
/// compares full keys on lookup).
class TailMemo {
 public:
  /// The memoized tail, or null.  Entries are never erased or modified
  /// and unordered_map nodes are stable, so the pointer stays valid.
  const ProbeCounts* find(const std::string& key) {
    Shard& s = shard(key);
    MutexLock lock(s.mu);
    const auto it = s.map.find(key);
    return it == s.map.end() ? nullptr : &it->second;
  }

  void insert(const std::string& key, ProbeCounts delta) {
    Shard& s = shard(key);
    MutexLock lock(s.mu);
    s.map.emplace(key, std::move(delta));
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      MutexLock lock(s.mu);
      n += s.map.size();
    }
    return n;
  }

 private:
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<std::string, ProbeCounts> map MCAN_GUARDED_BY(mu);
  };

  Shard& shard(const std::string& key) {
    // Shard choice only spreads lock contention; memo hits/values are
    // identical whichever shard holds a key, so the hash value never
    // influences reported output.
    // mcan-analyze: allow(nondet-hash) shard index never reaches output
    return shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  std::array<Shard, 16> shards_;
};

/// Dedup execution: clone the prefix, simulate only the flip window, then
/// finish from the memoized tail (simulating it on a miss).
ProbeCounts run_dedup_case(const SweepPlan& plan, const PrefixState& tmpl,
                           TailMemo& memo, long long& memo_hits,
                           const std::vector<std::pair<NodeId, int>>& flips) {
  Network net(plan.n_nodes, plan.protocol);
  start_probe(net, plan, &tmpl);
  ScriptedFaults inj;
  inject_flips(inj, plan, flips);
  net.set_injector(inj);

  // Simulate the flip window: the only part whose evolution depends on
  // this specific case.
  while (net.sim().now() < plan.t_cut) net.sim().step();

  // Counts through the cut (acceptance usually lands in the window).
  ProbeCounts counts = read_counts(net, &tmpl.counts);

  // Key the tail on the exact machine state of all nodes.
  std::string key;
  key.reserve(256);
  for (int i = 0; i < plan.n_nodes; ++i) net.node(i).append_state(key);

  if (const ProbeCounts* tail = memo.find(key)) {
    ++memo_hits;
    counts += *tail;
    return counts;
  }
  ProbeCounts end = finish_probe(net, &tmpl.counts, kQuietBudget);
  ProbeCounts tail = end;
  tail -= counts;
  memo.insert(key, std::move(tail));
  return end;
}

// ---------------------------------------------------------------------------
// symmetry reduction
// ---------------------------------------------------------------------------

long long factorial(int n) {
  long long r = 1;
  for (int i = 2; i <= n; ++i) r *= i;
  return r;
}

/// Receiver-permutation orbit handling.  Receivers (nodes 1..n-1) are
/// interchangeable: they share configuration and flip window, so renaming
/// them maps any case to an equivalent one with permuted delivery counts —
/// which the classification (all/any/dup over receivers) cannot tell
/// apart.  A case is *canonical* iff the receivers' per-node flip position
/// lists are in non-increasing lexicographic order; returns the orbit size
/// (distinct receiver relabelings) for a canonical case and 0 otherwise.
long long orbit_weight(const std::vector<std::pair<NodeId, int>>& flips,
                       int n_nodes) {
  const int receivers = n_nodes - 1;
  std::vector<std::vector<int>> lists(static_cast<std::size_t>(receivers));
  for (const auto& [node, pos] : flips) {
    if (node >= 1) lists[static_cast<std::size_t>(node - 1)].push_back(pos);
  }
  // Slot enumeration is (node asc, pos asc), so each list is sorted.
  for (int i = 0; i + 1 < receivers; ++i) {
    if (lists[static_cast<std::size_t>(i)] <
        lists[static_cast<std::size_t>(i + 1)]) {
      return 0;  // not canonical: a relabeling with sorted lists exists
    }
  }
  // Orbit size: receivers! / (product over groups of equal lists of
  // group_size!) — equal lists relabel onto themselves.
  long long weight = factorial(receivers);
  int run = 1;
  for (int i = 1; i < receivers; ++i) {
    if (lists[static_cast<std::size_t>(i)] ==
        lists[static_cast<std::size_t>(i - 1)]) {
      ++run;
    } else {
      weight /= factorial(run);
      run = 1;
    }
  }
  weight /= factorial(run);
  return weight;
}

// ---------------------------------------------------------------------------
// the sweep driver
// ---------------------------------------------------------------------------

/// The tally of one first-flip subtree.  Built on the worker's stack and
/// stored once when the subtree ends, so workers never share a cache line
/// on the per-case path.
struct SubtreeTally {
  long long cases = 0;
  long long imo = 0;
  long long double_rx = 0;
  long long total_loss = 0;
  long long timeouts = 0;
  long long violating = 0;
  long long enumerated = 0;
  long long simulated = 0;
  long long memo_hits = 0;
  long long symmetry_skips = 0;
  std::vector<Counterexample> examples;
};

struct SharedState {
  std::atomic<long long> enumerated{0};     ///< global progress counter
  std::atomic<long long> checked{0};        ///< cases charged to the budget
  std::atomic<bool> stop{false};            ///< budget exhausted
};

/// Visit every k-combination whose first slot is `first`, in lexicographic
/// order.
SubtreeTally run_subtree(const ModelCheckConfig& mc, const SweepPlan& plan,
                         const PrefixState* tmpl, TailMemo* memo,
                         SharedState& shared, const CheckProgressFn& progress,
                         long long first) {
  SubtreeTally tally;
  const int k = mc.base.errors;
  const auto n_slots = static_cast<long long>(plan.slots.size());
  std::vector<std::pair<NodeId, int>> chosen;
  chosen.reserve(static_cast<std::size_t>(k));

  constexpr long long kProgressStride = 512;
  long long since_progress = 0;

  const auto note_progress = [&](long long batch) {
    const long long done =
        shared.enumerated.fetch_add(batch, std::memory_order_relaxed) + batch;
    if (progress) progress(done, plan.total_combos);
  };

  // Visit every combination extending `chosen` with slots from [start, ..].
  const std::function<void(long long)> recurse = [&](long long start) {
    if (static_cast<int>(chosen.size()) == k) {
      ++tally.enumerated;
      if (++since_progress >= kProgressStride) {
        note_progress(since_progress);
        since_progress = 0;
      }

      long long weight = 1;
      if (mc.symmetry) {
        weight = orbit_weight(chosen, mc.base.n_nodes);
        if (weight == 0) {
          ++tally.symmetry_skips;
          return;
        }
      }

      if (mc.max_cases > 0) {
        const long long seq =
            shared.checked.fetch_add(1, std::memory_order_relaxed);
        if (seq >= mc.max_cases) {
          shared.stop.store(true, std::memory_order_relaxed);
          return;
        }
      }

      // The window is simulated even on a memo hit.
      ++tally.simulated;
      const ProbeCounts counts =
          mc.dedup ? run_dedup_case(plan, *tmpl, *memo, tally.memo_hits, chosen)
                   : run_full_case(plan, chosen);
      const Verdict v = counts.verdict();

      tally.cases += weight;
      if (!v.violation()) return;
      tally.violating += weight;
      if (v.imo) tally.imo += weight;
      if (v.dup) tally.double_rx += weight;
      if (v.loss) tally.total_loss += weight;
      if (v.timeout) tally.timeouts += weight;
      if (static_cast<int>(tally.examples.size()) < mc.max_examples) {
        tally.examples.push_back(
            {chosen, describe_verdict(v, counts.deliveries, 0)});
      }
      return;
    }
    for (long long i = start; i < n_slots; ++i) {
      if (shared.stop.load(std::memory_order_relaxed)) return;
      chosen.push_back(plan.slots[static_cast<std::size_t>(i)]);
      recurse(i + 1);
      chosen.pop_back();
    }
  };

  if (!shared.stop.load(std::memory_order_relaxed)) {
    chosen.push_back(plan.slots[static_cast<std::size_t>(first)]);
    recurse(first + 1);
  }
  if (since_progress > 0) note_progress(since_progress);
  return tally;
}

}  // namespace

ModelCheckResult run_model_check(const ModelCheckConfig& cfg,
                                 const CheckProgressFn& progress) {
  cfg.validate();
  const SweepPlan plan = make_plan(cfg.base);
  if (cfg.base.errors > static_cast<int>(plan.slots.size())) {
    throw std::invalid_argument(
        "model check: error budget k=" + std::to_string(cfg.base.errors) +
        " exceeds the " + std::to_string(plan.slots.size()) +
        " flip slots of the window");
  }

  // One task per first-slot subtree, one tally per task, merged in task
  // order: counts and kept examples are the same for every jobs value.
  const std::size_t subtrees = plan.slots.size() -
                               static_cast<std::size_t>(cfg.base.errors) + 1;
  const int jobs = resolve_jobs(cfg.jobs);

  const auto t0 = std::chrono::steady_clock::now();

  PrefixState* tmpl = nullptr;
  TailMemo* memo = nullptr;
  std::unique_ptr<PrefixState> tmpl_owner;
  std::unique_ptr<TailMemo> memo_owner;
  if (cfg.dedup) {
    tmpl_owner = std::make_unique<PrefixState>(plan);
    memo_owner = std::make_unique<TailMemo>();
    tmpl = tmpl_owner.get();
    memo = memo_owner.get();
  }

  SharedState shared;
  std::vector<SubtreeTally> tallies(subtrees);
  parallel_for(subtrees, jobs, [&](std::size_t first) {
    tallies[first] = run_subtree(cfg, plan, tmpl, memo, shared, progress,
                                 static_cast<long long>(first));
  });

  ModelCheckResult res;
  res.cfg = plan.cfg;
  res.complete = !shared.stop.load();
  for (const SubtreeTally& t : tallies) {
    res.cases += t.cases;
    res.imo += t.imo;
    res.double_rx += t.double_rx;
    res.total_loss += t.total_loss;
    res.timeouts += t.timeouts;
    res.violating += t.violating;
    res.stats.enumerated += t.enumerated;
    res.stats.simulated += t.simulated;
    res.stats.tail_memo_hits += t.memo_hits;
    res.stats.symmetry_skips += t.symmetry_skips;
    for (const Counterexample& ce : t.examples) {
      if (static_cast<int>(res.examples.size()) < cfg.max_examples) {
        res.examples.push_back(ce);
      }
    }
  }
  res.stats.distinct_tails = memo ? memo->size() : 0;
  // Never more workers than first-slot subtrees.
  res.stats.jobs = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs), subtrees));
  res.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

FlipCaseResult run_flip_case(const ProtocolParams& protocol, int n_nodes,
                             const std::vector<std::pair<NodeId, int>>& flips) {
  ExhaustiveConfig cfg;
  cfg.protocol = protocol;
  cfg.n_nodes = n_nodes;
  cfg.errors = static_cast<int>(flips.size());
  const ProbeCounts counts = run_full_case(make_probe(cfg), flips);
  const Verdict v = counts.verdict();
  return {v, describe_verdict(v, counts.deliveries, 0)};
}

}  // namespace mcan
