// The reference throughput oracle of the differential suites and of
// bench_floorplan_flow's oracle head-to-head: copy the base graph, apply a
// demand per label (labels not mentioned keep their base counts; a
// repeated label's last entry wins), and solve the copy fresh with the
// certified min_cycle_ratio_howard(). graph::ThroughputEngine must return
// the same bits for every demand, so an anneal through either oracle
// follows the same trajectory.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "floorplan/annealer.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/digraph.hpp"

namespace wp::reference {

using Demand = std::vector<std::pair<std::string, int>>;

/// Stateless fplan::ThroughputFn over `base`. The label index is built
/// once and only read, so copies share nothing mutable and pooled
/// restarts may each call their own. bench_floorplan_flow times this
/// function as the reference of throughput_eval_speedup.
inline fplan::ThroughputFn fresh_howard_fn(graph::Digraph base) {
  std::unordered_map<std::string, std::vector<graph::EdgeId>> by_label;
  for (graph::EdgeId e = 0; e < base.num_edges(); ++e)
    by_label[base.edge(e).label].push_back(e);
  return [base = std::move(base),
          by_label = std::move(by_label)](const Demand& demand) {
    graph::Digraph g = base;
    for (const auto& [label, rs] : demand) {
      const auto it = by_label.find(label);
      if (it == by_label.end()) continue;
      for (const graph::EdgeId e : it->second) g.edge(e).relay_stations = rs;
    }
    return graph::min_cycle_ratio_howard(g).ratio;
  };
}

/// The fresh certified ratio of `base` under one demand.
inline double fresh_ratio(const graph::Digraph& base, const Demand& demand) {
  return fresh_howard_fn(base)(demand);
}

}  // namespace wp::reference
