// Relay-station placement optimization: given per-connection minimum
// relay-station requirements (e.g. derived from wire lengths after
// floorplanning) and a budget of connections that may be relieved (kept
// short, routed on upper metal, …), choose the assignment that maximizes
// throughput. Produces the paper's "Optimal k" configurations (Table 1).
//
// The objective is caller-supplied: the experiment driver scores each
// assignment by simulated WP2 throughput of the case-study processor.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace wp::graph {

/// One candidate assignment: relay stations per connection name.
using RsAssignment = std::map<std::string, int>;

/// Objective: larger is better (throughput of the assignment).
using RsObjective = std::function<double(const RsAssignment&)>;

struct RsOptimizeProblem {
  /// The required counts if a connection is not relieved.
  RsAssignment demand;
  /// Counts a relieved connection falls back to (usually demand-1 or 0).
  RsAssignment relieved;
  /// Maximum number of connections that may be relieved.
  int max_relieved = 0;
};

struct RsOptimizeResult {
  RsAssignment assignment;
  std::vector<std::string> relieved_connections;
  double objective = 0.0;
  std::size_t evaluations = 0;
};

/// Exhaustively tries every subset of at most `max_relieved` relieved
/// connections (the Table-1 topology has 10, so this is cheap) and returns
/// the best assignment under the objective.
RsOptimizeResult optimize_rs_exhaustive(const RsOptimizeProblem& problem,
                                        const RsObjective& objective);

}  // namespace wp::graph
