#include "testkit/graphs.hpp"

#include <string>

#include "gen/topologies.hpp"
#include "graph/cycles.hpp"
#include "util/assert.hpp"

namespace wp::testkit {

namespace {

using graph::Digraph;

void add_numbered_nodes(Digraph& g, int num_nodes) {
  for (int i = 0; i < num_nodes; ++i) g.add_node("p" + std::to_string(i));
}

int random_rs(Rng& rng, int max_relay_stations) {
  return static_cast<int>(
      rng.below(static_cast<std::uint64_t>(max_relay_stations) + 1));
}

}  // namespace

Digraph random_digraph(const RandomGraphConfig& config, Rng& rng) {
  WP_REQUIRE(config.num_nodes >= 1, "need at least one node");
  Digraph g;
  add_numbered_nodes(g, config.num_nodes);

  if (config.ensure_cycle && config.num_nodes >= 2) {
    for (int i = 0; i < config.num_nodes; ++i)
      g.add_edge(i, (i + 1) % config.num_nodes, "ring",
                 random_rs(rng, config.max_relay_stations));
  }
  for (int u = 0; u < config.num_nodes; ++u) {
    for (int v = 0; v < config.num_nodes; ++v) {
      if (u == v) continue;
      if (rng.chance(config.edge_probability))
        g.add_edge(u, v, "e", random_rs(rng, config.max_relay_stations));
    }
  }
  return g;
}

Digraph ring_graph(int num_nodes, const std::vector<int>& rs_pattern) {
  WP_REQUIRE(num_nodes >= 1, "need at least one node");
  WP_REQUIRE(!rs_pattern.empty(), "relay-station pattern must be non-empty");
  Digraph g;
  add_numbered_nodes(g, num_nodes);
  for (int i = 0; i < num_nodes; ++i)
    g.add_edge(i, (i + 1) % num_nodes, "ring",
               rs_pattern[static_cast<std::size_t>(i) % rs_pattern.size()]);
  return g;
}

bool is_strongly_connected(const Digraph& g) {
  return g.num_nodes() > 0 &&
         gen::strongly_connected_components(g).count == 1;
}

graph::CycleRatioResult min_cycle_ratio_exhaustive(const Digraph& g,
                                                   std::size_t max_cycles) {
  graph::CycleRatioResult result;
  for (const auto& c : graph::enumerate_cycles(g, max_cycles)) {
    const double r = c.throughput();
    if (!result.has_cycle || r < result.ratio) {
      result.ratio = r;
      result.critical_cycle = c.edges;
      result.has_cycle = true;
    }
  }
  return result;
}

}  // namespace wp::testkit
