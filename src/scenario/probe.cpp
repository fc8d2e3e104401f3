#include "scenario/probe.hpp"

#include "analysis/tagged.hpp"
#include "frame/encoder.hpp"

namespace mcan {

Frame probe_frame() {
  return make_tagged_frame(0x100, MsgKind::Data, MessageKey{0, 1});
}

int model_check_eof_start(const ProtocolParams& protocol) {
  return wire_length(probe_frame(), protocol.eof_bits()) - protocol.eof_bits();
}

ProbeCounts& ProbeCounts::operator+=(const ProbeCounts& o) {
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    deliveries[i] += o.deliveries[i];
  }
  tx_success += o.tx_success;
  timeout = timeout || o.timeout;
  return *this;
}

ProbeCounts& ProbeCounts::operator-=(const ProbeCounts& o) {
  for (std::size_t i = 0; i < deliveries.size(); ++i) {
    deliveries[i] -= o.deliveries[i];
  }
  tx_success -= o.tx_success;
  return *this;
}

ProbeCounts read_counts(Network& net, const ProbeCounts* base) {
  ProbeCounts c;
  if (base) {
    c = *base;
  } else {
    c.deliveries.assign(static_cast<std::size_t>(net.size()), 0);
  }
  for (int i = 0; i < net.size(); ++i) {
    c.deliveries[static_cast<std::size_t>(i)] +=
        static_cast<int>(net.deliveries(i).size());
  }
  c.tx_success += static_cast<int>(net.log().count(EventKind::TxSuccess, 0));
  return c;
}

PrefixState::PrefixState(const ProbeSetup& setup)
    : net(setup.n_nodes, setup.protocol) {
  net.node(0).enqueue(setup.frame);
  while (net.sim().now() < setup.t_first) net.sim().step();
  counts = read_counts(net);
}

void clone_bus(Network& dst, const Network& src) {
  for (int i = 0; i < src.size(); ++i) {
    dst.node(i).clone_runtime_state(src.node(i));
  }
  dst.sim().warp_to(src.sim().now());
}

void start_probe(Network& net, const ProbeSetup& setup,
                 const PrefixState* prefix) {
  if (prefix) {
    clone_bus(net, prefix->net);
  } else {
    net.node(0).enqueue(setup.frame);
  }
}

std::unique_ptr<Network> make_trial_bus(const ProbeSetup& setup,
                                        const PrefixState* prefix) {
  auto net = std::make_unique<Network>(setup.n_nodes, setup.protocol);
  start_probe(*net, setup, prefix);
  return net;
}

ProbeCounts finish_probe(Network& net, const ProbeCounts* base,
                         BitTime quiet_budget) {
  const bool quiet = net.run_until_quiet(quiet_budget);
  ProbeCounts c = read_counts(net, base);
  c.timeout = !quiet;
  return c;
}

}  // namespace mcan
