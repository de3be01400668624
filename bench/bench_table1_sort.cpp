// E1 — Table 1, Extraction Sort section (paper rows 1-13, pipelined CPU):
// the ideal system, one relay station on each single connection, all-1
// except CU-IC, and the optimizer's "Optimal 1 (no CU-IC)" placement.
// Exits 1 when a row fails its checks or its WP2 throughput falls below
// WP1's.
#include <iostream>

#include "bench_common.hpp"
#include "proc/experiment.hpp"

int main() {
  using namespace wp::proc;

  const ProgramSpec program = extraction_sort_program(16, 1);
  const CpuConfig cpu;  // pipelined

  std::vector<ExperimentRow> rows;
  for (const auto& config : table1_sort_configs())
    rows.push_back(run_experiment(program, cpu, config));

  // Row 13, "Optimal 1 (no CU-IC)": all-1 demand with up to three
  // connections relieved to zero (kept short by the floorplan), chosen
  // exhaustively to maximize the simulated WP2 throughput.
  std::map<std::string, int> demand, relieved;
  for (const auto& name : cpu_connections())
    if (name != "CU-IC") {
      demand[name] = 1;
      relieved[name] = 0;
    }
  const RsConfig optimal =
      optimal_config("Optimal 1 (no CU-IC)", program, cpu, demand, relieved,
                     /*budget=*/3);
  rows.push_back(run_experiment(program, cpu, optimal));

  const bool rows_pass = wp::bench::print_table1(
      "Table 1 — Extraction Sort (pipelined case), program " + program.name,
      rows);
  wp::bench::maybe_write_csv("table1_sort", rows);

  std::cout << "Paper shape targets: WP1 Th = m/(m+n) per worst excited "
               "loop;\nCU-IC worst (0.5, ~no WP2 gain); RF-DC-class links "
               "~0.667 with the\nlargest WP2 recovery (paper: +49% on "
               "RF-DC); all WP2 >= WP1.\n";
  return rows_pass ? 0 : 1;
}
