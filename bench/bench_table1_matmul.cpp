// E2 — Table 1, Matrix Multiply section (paper rows 1-25, pipelined CPU):
// the sort-section configurations plus the all-1-with-2-on-one sweeps,
// "Optimal 2 (no CU-IC)", all-2, and all-2-with-1-on-CU-RF.
// Exits 1 when a row fails its checks or its WP2 throughput falls below
// WP1's.
#include <iostream>

#include "bench_common.hpp"
#include "proc/experiment.hpp"

int main() {
  using namespace wp::proc;

  const ProgramSpec program = matmul_program(4, 2);
  const CpuConfig cpu;  // pipelined

  const wp::sim::GoldenCache::Stats oracle_before =
      wp::sim::SimOracle::shared().stats();
  std::vector<ExperimentRow> rows;
  const auto configs = table1_matmul_configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    rows.push_back(run_experiment(program, cpu, configs[i]));
    if (configs[i].label == "All 1 and 2 DC-RF") {
      // Paper row 23, "Optimal 2 (no CU-IC)": all-2 demand, up to three
      // connections relieved to 1, maximizing simulated WP2 throughput.
      std::map<std::string, int> demand, relieved;
      for (const auto& name : cpu_connections())
        if (name != "CU-IC") {
          demand[name] = 2;
          relieved[name] = 1;
        }
      rows.push_back(run_experiment(
          program, cpu,
          optimal_config("Optimal 2 (no CU-IC)", program, cpu, demand,
                         relieved, /*budget=*/3)));
    }
  }

  const bool rows_pass = wp::bench::print_table1(
      "Table 1 — Matrix Multiply (pipelined case), program " + program.name,
      rows);
  wp::bench::maybe_write_csv("table1_matmul", rows);
  // The whole table — 26 rows plus the optimizer's exhaustive candidate
  // scan — shares one (program, cpu) key, so the golden matmul run is
  // simulated exactly once.
  wp::bench::print_golden_replays("table1_matmul", oracle_before,
                                  wp::sim::SimOracle::shared().stats());

  std::cout << "Paper shape targets: doubling a connection's RS lowers WP1 "
               "Th toward\nm/(m+2); \"All 1 and 2 CU-IC\" is the floor "
               "(0.33, no WP2 gain);\nRF-DC and CU-AL rows show the biggest "
               "WP2 recovery.\n";
  return rows_pass ? 0 : 1;
}
