#include "proc/experiment.hpp"

#include <utility>

#include "graph/optimize.hpp"
#include "sim/oracle.hpp"

namespace wp::proc {

// Every driver here calls the simulation oracle directly: the same
// SimOracle::run_experiment and wp2_throughput the evaluation daemon runs
// for a decoded wire request.

ExperimentRow run_experiment(const ProgramSpec& program,
                             const CpuConfig& cpu, const RsConfig& config,
                             const ExperimentOptions& options) {
  return sim::SimOracle::shared().run_experiment(program, cpu, config,
                                                 options);
}

std::vector<RsConfig> table1_sort_configs() {
  std::vector<RsConfig> configs;
  configs.push_back({"All 0 (ideal)", {}});
  for (const auto& name : cpu_connections())
    configs.push_back({"Only " + name, {{name, 1}}});
  RsConfig all1{"All 1 (no CU-IC)", {}};
  for (const auto& name : cpu_connections())
    if (name != "CU-IC") all1.rs[name] = 1;
  configs.push_back(std::move(all1));
  return configs;
}

std::vector<RsConfig> table1_matmul_configs() {
  std::vector<RsConfig> configs = table1_sort_configs();
  // "All 1 and 2 <X>": every connection (except CU-IC) at 1, X raised to 2.
  for (const auto& name : cpu_connections()) {
    RsConfig cfg{"All 1 and 2 " + name, {}};
    for (const auto& other : cpu_connections())
      if (other != "CU-IC") cfg.rs[other] = 1;
    cfg.rs[name] = 2;  // CU-IC row: 2 on CU-IC plus 1 everywhere else
    configs.push_back(std::move(cfg));
  }
  RsConfig all2{"All 2 (no CU-IC)", {}};
  for (const auto& name : cpu_connections())
    if (name != "CU-IC") all2.rs[name] = 2;
  configs.push_back(all2);
  RsConfig all2and1{"All 2 and 1 CU-RF", all2.rs};
  all2and1.rs["CU-RF"] = 1;
  configs.push_back(std::move(all2and1));
  return configs;
}

RsConfig optimal_config(const std::string& label, const ProgramSpec& program,
                        const CpuConfig& cpu,
                        const std::map<std::string, int>& demand,
                        const std::map<std::string, int>& relieved,
                        int budget) {
  // Every candidate the exhaustive search scores shares one golden run:
  // the oracle caches it on the first evaluation, so the optimizer's cost
  // is the WP2 simulations alone.
  sim::SimOracle& oracle = sim::SimOracle::shared();
  wp::graph::RsOptimizeProblem problem;
  problem.demand = demand;
  problem.relieved = relieved;
  problem.max_relieved = budget;
  const auto result = wp::graph::optimize_rs_exhaustive(
      problem, [&](const wp::graph::RsAssignment& assignment) {
        return oracle.wp2_throughput(program, cpu, assignment);
      });
  return {label, result.assignment};
}

}  // namespace wp::proc
