#include "graph/optimize.hpp"

#include <cstdint>

#include "util/assert.hpp"

namespace wp::graph {

namespace {

RsAssignment apply_relief(const RsOptimizeProblem& problem,
                          const std::vector<std::string>& relieved) {
  RsAssignment assignment = problem.demand;
  for (const auto& name : relieved) {
    auto it = problem.relieved.find(name);
    WP_REQUIRE(it != problem.relieved.end(),
               "no relieved count for connection " + name);
    assignment[name] = it->second;
  }
  return assignment;
}

}  // namespace

RsOptimizeResult optimize_rs_exhaustive(const RsOptimizeProblem& problem,
                                        const RsObjective& objective) {
  WP_REQUIRE(problem.max_relieved >= 0, "negative relief budget");
  std::vector<std::string> names;
  names.reserve(problem.demand.size());
  for (const auto& [name, count] : problem.demand) {
    (void)count;
    names.push_back(name);
  }
  const std::size_t n = names.size();
  WP_REQUIRE(n <= 20, "exhaustive search limited to 20 connections");

  RsOptimizeResult best;
  best.objective = -1.0;
  for (std::uint32_t subset = 0; subset < (1u << n); ++subset) {
    int bits = 0;
    for (std::uint32_t rest = subset; rest != 0; rest &= rest - 1) ++bits;
    if (bits > problem.max_relieved)
      continue;
    std::vector<std::string> relieved;
    for (std::size_t i = 0; i < n; ++i)
      if ((subset >> i) & 1u) relieved.push_back(names[i]);
    const RsAssignment assignment = apply_relief(problem, relieved);
    const double value = objective(assignment);
    ++best.evaluations;
    if (value > best.objective) {
      best.objective = value;
      best.assignment = assignment;
      best.relieved_connections = std::move(relieved);
    }
  }
  return best;
}

}  // namespace wp::graph
