// Graph builders and slow oracles of the graph and generator suites: a
// seeded Erdős–Rényi digraph, the textbook ring, a strong-connectivity
// check and the exhaustive minimum cycle ratio that Howard's solver is
// checked against.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/cycle_ratio.hpp"
#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace wp::testkit {

struct RandomGraphConfig {
  int num_nodes = 8;
  /// Probability of each ordered pair (u,v), u != v, getting an edge.
  double edge_probability = 0.3;
  int max_relay_stations = 3;
  /// Guarantees at least one cycle by closing a random ring first. When
  /// false the result may be ACYCLIC (edge_probability 0 always is): the
  /// min-cycle-ratio solvers then report ratio 1.0 / has_cycle=false
  /// rather than throwing — covered by a regression test.
  bool ensure_cycle = true;
};

/// Erdős–Rényi-style digraph with random relay-station counts in
/// [0, max_relay_stations]: nodes "p0".."p<n-1>", the closing ring's edges
/// labeled "ring" and the random ones "e". Deterministic in `rng`.
graph::Digraph random_digraph(const RandomGraphConfig& config, Rng& rng);

/// A single directed ring of `num_nodes` nodes with the given per-edge
/// relay-station counts (cyclically repeated) — the textbook m/(m+n) case.
graph::Digraph ring_graph(int num_nodes, const std::vector<int>& rs_pattern);

/// True when `g` has nodes and one strongly connected component.
bool is_strongly_connected(const graph::Digraph& g);

/// Exact minimum cycle ratio via full Johnson enumeration (throws if the
/// graph has more than `max_cycles` elementary cycles): the reference
/// min_cycle_ratio_howard() is checked against on small graphs.
graph::CycleRatioResult min_cycle_ratio_exhaustive(
    const graph::Digraph& g, std::size_t max_cycles = 100000);

}  // namespace wp::testkit
