#include "gen/instances.hpp"

#include <cmath>
#include <sstream>

#include "util/assert.hpp"

namespace wp::gen {

namespace {

using graph::EdgeId;
using graph::NodeId;

fplan::Block sample_block(const std::string& name,
                          const BlockDistribution& dist, Rng& rng) {
  WP_REQUIRE(dist.min_area_mm2 > 0 && dist.max_area_mm2 >= dist.min_area_mm2,
             "bad block area range");
  WP_REQUIRE(dist.min_aspect > 0 && dist.max_aspect >= dist.min_aspect,
             "bad block aspect range");
  const double log_lo = std::log(dist.min_area_mm2);
  const double log_hi = std::log(dist.max_area_mm2);
  const double area = std::exp(log_lo + rng.uniform() * (log_hi - log_lo));
  const double aspect =
      dist.min_aspect + rng.uniform() * (dist.max_aspect - dist.min_aspect);
  fplan::Block block;
  block.name = name;
  block.width = std::sqrt(area * aspect);
  block.height = std::sqrt(area / aspect);
  return block;
}

}  // namespace

GeneratedSystem dress_topology(const graph::Digraph& topology,
                               const SystemConfig& config, Rng& rng) {
  WP_REQUIRE(topology.num_nodes() > 0, "cannot dress an empty topology");
  WP_REQUIRE(config.moore_states >= 1, "moore_states must be >= 1");
  GeneratedSystem sys;
  sys.instance.name = config.name;

  // Blocks: one per process, extents from the configured distributions.
  sys.instance.blocks.reserve(static_cast<std::size_t>(topology.num_nodes()));
  for (NodeId n = 0; n < topology.num_nodes(); ++n)
    sys.instance.blocks.push_back(
        sample_block(topology.node_name(n), config.blocks, rng));

  // Nets: one per channel, keyed by the edge label so placement-derived
  // relay-station demand addresses topology edges directly.
  sys.instance.nets.reserve(static_cast<std::size_t>(topology.num_edges()));
  for (EdgeId e = 0; e < topology.num_edges(); ++e) {
    const auto& data = topology.edge(e);
    fplan::Net net;
    net.connection = data.label;
    net.src_block = data.src;
    net.dst_block = data.dst;
    sys.instance.nets.push_back(std::move(net));
  }

  // Netlist: a randommoore block per node, ports sized to its fan-in/out;
  // channel k out of node u leaves port out<k>, channel j into node v
  // enters port in<j> (ordinals follow edge-id order). Skipped entirely
  // when the config asks for a netlist-free dressing — the port-limit
  // preconditions below belong to the randommoore process model, not to
  // the floorplan/throughput views built above.
  if (!config.build_netlist) return sys;
  std::vector<int> out_ordinal(static_cast<std::size_t>(topology.num_edges()));
  std::vector<int> in_ordinal(static_cast<std::size_t>(topology.num_edges()));
  for (NodeId n = 0; n < topology.num_nodes(); ++n) {
    const graph::Digraph::EdgeList outs = topology.out_edges(n);
    const graph::Digraph::EdgeList ins = topology.in_edges(n);
    WP_REQUIRE(!outs.empty() && !ins.empty(),
               "node " + topology.node_name(n) +
                   " needs in- and out-degree >= 1 to become a process "
                   "(generate with ensure_strongly_connected)");
    WP_REQUIRE(ins.size() <= 32,
               "node " + topology.node_name(n) +
                   " exceeds the 32-input process port limit");
    int k = 0;
    for (const EdgeId e : outs) out_ordinal[static_cast<std::size_t>(e)] = k++;
    k = 0;
    for (const EdgeId e : ins) in_ordinal[static_cast<std::size_t>(e)] = k++;
  }

  std::ostringstream os;
  os << "system " << config.name << "\n";
  for (NodeId n = 0; n < topology.num_nodes(); ++n)
    os << "process " << topology.node_name(n) << " randommoore inputs="
       << topology.in_edges(n).size() << " outputs="
       << topology.out_edges(n).size() << " states=" << config.moore_states
       << " seed=" << (rng.below(1000000000) + 1) << "\n";
  for (EdgeId e = 0; e < topology.num_edges(); ++e) {
    const auto& data = topology.edge(e);
    os << "channel " << topology.node_name(data.src) << ".out"
       << out_ordinal[static_cast<std::size_t>(e)] << " -> "
       << topology.node_name(data.dst) << ".in"
       << in_ordinal[static_cast<std::size_t>(e)]
       << " connection=" << data.label;
    if (data.relay_stations > 0) os << " rs=" << data.relay_stations;
    os << "\n";
  }
  sys.netlist = os.str();
  return sys;
}

}  // namespace wp::gen
