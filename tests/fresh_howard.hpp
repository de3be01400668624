// The reference throughput oracle of the differential suites: copy the
// base graph, apply a demand per label (labels not mentioned keep their
// base counts; a repeated label's last entry wins), and solve the copy
// fresh with the certified min_cycle_ratio_howard(). graph::ThroughputEngine
// must return the same bits for every demand, so an anneal through either
// oracle follows the same trajectory.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "floorplan/annealer.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/digraph.hpp"

namespace wp::reference {

using Demand = std::vector<std::pair<std::string, int>>;

inline graph::Digraph configured(const graph::Digraph& base,
                                 const Demand& demand) {
  graph::Digraph g = base;
  for (const auto& [label, rs] : demand)
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
      if (g.edge(e).label == label) g.edge(e).relay_stations = rs;
  return g;
}

inline double fresh_ratio(const graph::Digraph& base, const Demand& demand) {
  return graph::min_cycle_ratio_howard(configured(base, demand)).ratio;
}

/// Stateless fplan::ThroughputFn over `base`: copies share nothing
/// mutable, so pooled restarts may each call their own.
inline fplan::ThroughputFn fresh_howard_fn(graph::Digraph base) {
  return [base = std::move(base)](const Demand& demand) {
    return fresh_ratio(base, demand);
  };
}

}  // namespace wp::reference
