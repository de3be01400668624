// Static throughput analysis of a wire-pipelined system: the per-loop
// inventory behind the paper's Figure 1 discussion and the m/(m+n) WP1
// predictions of Table 1.
#pragma once

#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace wp::graph {

/// One row of the loop inventory.
struct LoopReportEntry {
  std::string description;  ///< "CU -> IC -> CU"
  int m = 0;                ///< processes on the loop
  int n = 0;                ///< relay stations on the loop
  double throughput = 1.0;  ///< m/(m+n) with the current RS counts
};

struct ThroughputReport {
  std::vector<LoopReportEntry> loops;  ///< sorted by ascending throughput
  double system_throughput = 1.0;      ///< min over loops (1.0 if acyclic)
  std::string critical_loop;           ///< description of the worst loop
};

/// Enumerates all loops and evaluates each with the graph's current
/// relay-station counts.
ThroughputReport analyze_throughput(const Digraph& g);

}  // namespace wp::graph
