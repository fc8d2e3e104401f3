#include "scenario/figures.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/properties.hpp"
#include "analysis/tagged.hpp"
#include "scenario/probe.hpp"

namespace mcan {

namespace {

constexpr BitTime kQuiesceBudget = 20000;

/// First time node `node` emitted `kind`, or kNoTime.
BitTime first_event_time(const EventLog& log, EventKind kind, NodeId node) {
  for (const Event& e : log.events()) {
    if (e.kind == kind && e.node == node) return e.t;
  }
  return kNoTime;
}

std::string interesting_notes(const EventLog& log) {
  std::string out;
  for (const Event& e : log.events()) {
    switch (e.kind) {
      case EventKind::ErrorDetected:
      case EventKind::SamplingDecision:
      case EventKind::ExtendedFlagStart:
      case EventKind::FrameAccepted:
      case EventKind::FrameRejected:
      case EventKind::TxSuccess:
      case EventKind::TxRejected:
      case EventKind::Crashed:
        out += "  " + e.to_string() + "\n";
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace

ScenarioOutcome run_eof_scenario(std::string name, const ProtocolParams& protocol,
                                 int n_nodes, std::vector<FaultTarget> faults,
                                 bool crash_tx_before_retransmit) {
  auto run_pass = [&](std::optional<BitTime> crash_at, bool want_trace,
                      ScenarioOutcome* out) -> BitTime {
    Network net(n_nodes, protocol);
    if (want_trace) net.enable_trace();
    ScriptedFaults inj(faults);
    net.set_injector(inj);
    net.node(0).enqueue(probe_frame());
    if (crash_at) net.sim().schedule_crash(0, *crash_at);
    net.run_until_quiet(kQuiesceBudget);

    const BitTime retransmit_t =
        first_event_time(net.log(), EventKind::TxRetransmit, 0);

    if (out != nullptr) {
      out->n_nodes = n_nodes;
      ProbeCounts counts = read_counts(net);
      out->deliveries = std::move(counts.deliveries);
      out->tx_success = counts.tx_success;
      out->tx_attempts =
          static_cast<int>(net.log().count(EventKind::SofSent, 0));
      out->tx_crashed = crash_at.has_value();
      out->faults_all_fired = inj.all_fired();
      out->notes.push_back(interesting_notes(net.log()));
      if (want_trace) {
        const int eof_start = model_check_eof_start(protocol);
        const BitTime from = eof_start > 8 ? static_cast<BitTime>(eof_start - 8) : 0;
        const BitTime to =
            std::min<BitTime>(net.sim().now(), from + 70);
        out->trace = net.trace().render(net.labels(), from, to);
      }
    }
    return retransmit_t;
  };

  ScenarioOutcome out;
  out.name = std::move(name);
  out.protocol = protocol;
  out.tx_node = 0;

  std::optional<BitTime> crash_at;
  if (crash_tx_before_retransmit) {
    // Pass 1: find when the transmitter schedules the retransmission, then
    // crash it right after its error flag, before the frame goes out again.
    const BitTime t = run_pass(std::nullopt, false, nullptr);
    if (t != kNoTime) crash_at = t + 7;
  }
  run_pass(crash_at, true, &out);
  return out;
}

// ---------------------------------------------------------------------------
// the figures
// ---------------------------------------------------------------------------

ScenarioOutcome run_fig1a(const ProtocolParams& p) {
  const int last = p.eof_bits() - 1;
  return run_eof_scenario("Fig 1a (X sees error in last EOF bit)", p, 5,
                          {FaultTarget::eof_bit(1, last),
                           FaultTarget::eof_bit(2, last)});
}

ScenarioOutcome run_fig1b(const ProtocolParams& p) {
  const int last = p.eof_bits() - 1;
  return run_eof_scenario("Fig 1b (X sees error in last-but-one EOF bit)", p, 5,
                          {FaultTarget::eof_bit(1, last - 1),
                           FaultTarget::eof_bit(2, last - 1)});
}

ScenarioOutcome run_fig1c(const ProtocolParams& p) {
  const int last = p.eof_bits() - 1;
  return run_eof_scenario(
      "Fig 1c (as 1b + transmitter crash before retransmission)", p, 5,
      {FaultTarget::eof_bit(1, last - 1), FaultTarget::eof_bit(2, last - 1)},
      /*crash_tx_before_retransmit=*/true);
}

ScenarioOutcome run_fig3(const ProtocolParams& p) {
  const int last = p.eof_bits() - 1;
  return run_eof_scenario(
      "Fig 3 (X hit in last-but-one EOF bit; tx view of last bit flipped)", p,
      5,
      {FaultTarget::eof_bit(1, last - 1), FaultTarget::eof_bit(2, last - 1),
       FaultTarget::eof_bit(0, last)});
}

ScenarioOutcome run_fig5(int m) {
  const ProtocolParams p = ProtocolParams::major_can(m);
  // 1 phantom at X (EOF bit 3, paper numbering), 2 flips hiding the flag
  // from the transmitter (bits 4 and 5), 2 flips on X's sampling window:
  // five disturbances total, the protocol's tolerance for m = 5.
  return run_eof_scenario(
      "Fig 5 (MajorCAN consistency under m errors)", p, 4,
      {FaultTarget::eof_bit(1, 2), FaultTarget::eof_bit(0, 3),
       FaultTarget::eof_bit(0, 4),
       FaultTarget::eof_relative(1, p.sample_begin() + 1),
       FaultTarget::eof_relative(1, p.sample_begin() + 3)});
}

// ---------------------------------------------------------------------------
// Fig. 4: single-node behaviour probe
// ---------------------------------------------------------------------------

int find_crc_error_body_bit(const ProtocolParams& p, int n_nodes) {
  for (int idx = 18; idx < 60; ++idx) {
    Network net(n_nodes, p);
    ScriptedFaults inj;
    FaultTarget t;
    t.node = 1;
    t.seg = Seg::Body;
    t.index = idx;
    inj.add(t);
    net.set_injector(inj);
    net.node(0).enqueue(probe_frame());
    net.run_until_quiet(kQuiesceBudget);
    for (const Event& e : net.log().events()) {
      if (e.node == 1 && e.kind == EventKind::ErrorDetected &&
          e.detail == "CRC error") {
        return idx;
      }
    }
  }
  return -1;
}

ScenarioOutcome run_crc_delay_scenario(const ProtocolParams& p) {
  const int crc_bit = find_crc_error_body_bit(p, 5);
  std::vector<FaultTarget> faults;
  FaultTarget corrupt;
  corrupt.node = 1;
  corrupt.seg = Seg::Body;
  corrupt.index = crc_bit;
  faults.push_back(corrupt);
  // Node 2 misses the first m-1 bits of node 1's CRC-error flag (which
  // starts at EOF-relative position 0), detecting it only at position m-1.
  for (int d = 0; d < p.m - 1; ++d) {
    faults.push_back(FaultTarget::eof_relative(2, d));
  }
  return run_eof_scenario("CRC flag delayed by m-1 errors", p, 5, faults);
}

std::vector<Fig4Row> run_fig4(int m) {
  const ProtocolParams p = ProtocolParams::major_can(m);
  std::vector<Fig4Row> rows;

  auto probe = [&](const std::string& label, FaultTarget fault) {
    Network net(2, p);
    ScriptedFaults inj;
    inj.add(fault);
    net.set_injector(inj);
    net.node(0).enqueue(probe_frame());
    net.run_until_quiet(kQuiesceBudget);

    // Only the first attempt characterises the behaviour; a retransmission
    // (if the frame was rejected) adds a clean second reception.
    BitTime cutoff = kNoTime;
    int sofs = 0;
    for (const Event& e : net.log().events()) {
      if (e.kind == EventKind::SofSent && e.node == 0 && ++sofs == 2) {
        cutoff = e.t;
        break;
      }
    }

    Fig4Row row;
    row.error_at = label;
    for (const Event& e : net.log().events()) {
      if (e.node != 1 || e.t >= cutoff) continue;
      switch (e.kind) {
        case EventKind::ErrorFlagStart:
          row.flag = "6-bit error flag";
          break;
        case EventKind::ExtendedFlagStart:
          row.flag = "extended error flag";
          break;
        case EventKind::SamplingDecision:
          row.sampling = true;
          break;
        case EventKind::FrameAccepted:
          row.verdict = "frame is accepted";
          break;
        case EventKind::FrameRejected:
          row.verdict = "frame is rejected";
          break;
        default:
          break;
      }
    }
    rows.push_back(row);
  };

  const int crc_bit = find_crc_error_body_bit(p);
  if (crc_bit >= 0) {
    FaultTarget t;
    t.node = 1;
    t.seg = Seg::Body;
    t.index = crc_bit;
    probe("CRC error", t);
  }
  for (int k = 0; k < p.eof_bits(); ++k) {
    probe("Error in EOF bit " + std::to_string(k + 1),
          FaultTarget::eof_bit(1, k));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// total order (CAN5) scenario
// ---------------------------------------------------------------------------

std::string OrderScenarioOutcome::summary() const {
  std::string s = name + " [" + protocol.name() + "]\n";
  for (std::size_t i = 0; i < per_node_order.size(); ++i) {
    s += "  node " + std::to_string(i + 1) + " delivers: " +
         per_node_order[i] + "\n";
  }
  s += "  order inversions=" + std::to_string(order_inversions);
  s += " duplicate deliveries=" + std::to_string(duplicate_deliveries);
  s += order_inversions == 0 ? " => total order preserved"
                             : " => TOTAL ORDER VIOLATED";
  return s;
}

OrderScenarioOutcome run_order_scenario(const ProtocolParams& p) {
  const int n = 5;
  Network net(n, p);
  ScriptedFaults inj;
  const int last = p.eof_bits() - 1;
  inj.add(FaultTarget::eof_bit(1, last - 1, 0));
  inj.add(FaultTarget::eof_bit(2, last - 1, 0));
  net.set_injector(inj);

  // A has the lower arbitration priority (higher id) so that B overtakes the
  // retransmission of A.
  const Frame a = make_tagged_frame(0x200, MsgKind::Data, MessageKey{0, 1});
  const Frame b = make_tagged_frame(0x080, MsgKind::Data, MessageKey{4, 1});
  net.node(0).enqueue(a);
  net.sim().run(15);  // B becomes pending while A's first copy is in flight
  net.node(4).enqueue(b);
  net.run_until_quiet(kQuiesceBudget);

  OrderScenarioOutcome out;
  out.name = "CAN5 order scenario (A partially received, B overtakes)";
  out.protocol = p;

  std::map<NodeId, DeliveryJournal> journals;
  for (int i = 1; i <= 4; ++i) {
    DeliveryJournal j;
    std::string order;
    for (const Delivery& d : net.deliveries(i)) {
      auto tag = parse_tag(d.frame);
      if (!tag) continue;
      j.push_back({tag->key, d.t});
      if (!order.empty()) order += ' ';
      order += tag->key.source == 0 ? 'A' : 'B';
    }
    journals.emplace(static_cast<NodeId>(i), std::move(j));
    out.per_node_order.push_back(order.empty() ? "(nothing)" : order);
  }

  const AbReport rep = check_atomic_broadcast(
      {{MessageKey{0, 1}, 0}, {MessageKey{4, 1}, 4}}, journals,
      {1, 2, 3, 4});
  out.order_inversions = rep.order_inversions;
  out.duplicate_deliveries = rep.duplicate_deliveries;
  return out;
}

// ---------------------------------------------------------------------------
// error-passive scenario (paper introduction)
// ---------------------------------------------------------------------------

ScenarioOutcome run_error_passive_scenario(bool switch_off_at_warning) {
  const ProtocolParams p = ProtocolParams::standard_can();
  FaultConfinementConfig fc;
  fc.switch_off_at_warning = switch_off_at_warning;

  const int crc_bit = find_crc_error_body_bit(p, 4);

  Network net(4, p, fc);
  net.enable_trace();
  // Node 1 is heavily disturbed: at the warning limit (switch-off policy)
  // or already past the passive limit.
  net.node(1).force_error_counters(0, switch_off_at_warning ? 100 : 130);

  ScriptedFaults inj;
  FaultTarget t;
  t.node = 1;
  t.seg = Seg::Body;
  t.index = crc_bit;
  inj.add(t);
  net.set_injector(inj);

  net.node(0).enqueue(probe_frame());
  net.run_until_quiet(kQuiesceBudget);

  ScenarioOutcome out;
  out.name = switch_off_at_warning
                 ? "error-passive scenario with warning switch-off"
                 : "error-passive scenario (passive flag is invisible)";
  out.protocol = p;
  out.tx_node = 0;
  out.n_nodes = 4;
  ProbeCounts counts = read_counts(net);
  out.deliveries = std::move(counts.deliveries);
  out.tx_success = counts.tx_success;
  out.tx_attempts = static_cast<int>(net.log().count(EventKind::SofSent, 0));
  out.faults_all_fired = true;
  out.notes.push_back(interesting_notes(net.log()));
  return out;
}

}  // namespace mcan
