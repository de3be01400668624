// E3 — the multicycle case (paper §3, results "not reported in table for
// space reasons"): both programs under the multicycle control unit. The
// paper's prose claim: the CU-IC loop, excited only once per ~5 firings,
// shows the best WP2-over-WP1 improvement (60%), while frequently accessed
// channels gain less. Here CU-IC gains +43% in both programs, but it is not
// the best: Only RF-DC gains +50% in both. The bench prints the CU-IC row
// for comparison and asserts only what the Table-1 benches assert (every
// row's checks pass and WP2 >= WP1), exiting 1 otherwise.
#include <iostream>

#include "bench_common.hpp"
#include "proc/experiment.hpp"

int main() {
  using namespace wp::proc;

  CpuConfig cpu;
  cpu.multicycle = true;

  bool rows_pass = true;
  for (const bool use_matmul : {false, true}) {
    const ProgramSpec program =
        use_matmul ? matmul_program(4, 2) : extraction_sort_program(16, 1);
    std::vector<ExperimentRow> rows;
    for (const auto& config : table1_sort_configs())
      rows.push_back(run_experiment(program, cpu, config));
    const bool pass = wp::bench::print_table1(
        "Multicycle case — " + program.name +
            " (paper §3: CU-IC loop excited every ~5 cycles)",
        rows);
    rows_pass = rows_pass && pass;
    wp::bench::maybe_write_csv(
        use_matmul ? "multicycle_matmul" : "multicycle_sort", rows);

    // Highlight the prose claim.
    for (const auto& row : rows) {
      if (row.label == "Only CU-IC") {
        std::cout << "CU-IC WP2-over-WP1 improvement (multicycle): "
                  << wp::fmt_percent(row.improvement)
                  << "  [paper reports +60% as the best of the loop set]\n";
      }
    }
    std::cout << "\n";
  }
  return rows_pass ? 0 : 1;
}
