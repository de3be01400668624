// E7 (extension) — relay-station depth sweep: Th versus n in 0..6 on each
// connection separately, WP1 vs WP2, both programs. Generalizes Table 1's
// single-RS rows and shows where the WP2 advantage saturates.
//
// Every sweep point is an independent WP1/WP2 simulation pair against the
// shared cached golden (simulation oracle: the golden runs once per
// program, no matter how many points or workers), fanned out with
// ThreadPool::parallel_for into input-order rows.
//
// Exits 1 when a row breaks the claim: WP2 below WP1 at a point, WP1
// rising with n on a connection, or WP1 off the static m/(m+n) bound by
// more than 0.005.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "proc/experiment.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace wp::proc;

  const CpuConfig cpu;
  bool ok = true;
  ExperimentOptions options;
  options.check_equivalence = false;  // speed; equivalence covered by tests

  for (const bool use_matmul : {false, true}) {
    const ProgramSpec program =
        use_matmul ? matmul_program(4, 2) : extraction_sort_program(16, 1);
    const wp::sim::GoldenCache::Stats oracle_before =
        wp::sim::SimOracle::shared().stats();
    wp::TextTable table({"connection", "n", "Th WP1", "Th WP2", "gain",
                         "static"});
    table.add_section("RS depth sweep — " + program.name);
    table.add_separator();

    std::vector<RsConfig> configs;
    for (const std::string conn : {"CU-IC", "CU-RF", "RF-ALU", "RF-DC",
                                   "ALU-CU", "DC-RF"}) {
      for (int n = 0; n <= 6; n += 2)
        configs.push_back({conn + " x" + std::to_string(n), {{conn, n}}});
    }

    std::vector<ExperimentRow> rows(configs.size());
    wp::ThreadPool::shared().parallel_for(0, configs.size(),
                                          [&](std::size_t i) {
      rows[i] = run_experiment(program, cpu, configs[i], options);
    });

    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ExperimentRow& row = rows[i];
      const auto& rs = configs[i].rs;
      table.add_row({rs.begin()->first, std::to_string(rs.begin()->second),
                     wp::fmt_fixed(row.th_wp1, 3),
                     wp::fmt_fixed(row.th_wp2, 3),
                     wp::fmt_percent(row.improvement),
                     wp::fmt_fixed(row.static_wp1, 3)});
      const std::string where = program.name + " " + configs[i].label;
      if (row.th_wp2 < row.th_wp1) {
        std::cerr << "bench_rs_sweep: " << where << ": WP2 " << row.th_wp2
                  << " below WP1 " << row.th_wp1 << "\n";
        ok = false;
      }
      // Rows of one connection are adjacent, in rising n.
      if (i > 0 && configs[i - 1].rs.begin()->first == rs.begin()->first &&
          row.th_wp1 > rows[i - 1].th_wp1) {
        std::cerr << "bench_rs_sweep: " << where << ": WP1 " << row.th_wp1
                  << " above " << rows[i - 1].th_wp1 << " at a smaller n\n";
        ok = false;
      }
      if (std::abs(row.th_wp1 - row.static_wp1) > 0.005) {
        std::cerr << "bench_rs_sweep: " << where << ": WP1 " << row.th_wp1
                  << " off the static bound " << row.static_wp1 << "\n";
        ok = false;
      }
    }
    table.print(std::cout);
    wp::bench::maybe_write_csv(
        use_matmul ? "rs_sweep_matmul" : "rs_sweep_sort", rows);
    wp::bench::print_golden_replays(
        use_matmul ? "rs_sweep_matmul" : "rs_sweep_sort", oracle_before,
        wp::sim::SimOracle::shared().stats());
    std::cout << "\n";
  }
  std::cout << "WP1 follows m/(m+n) (deeper pipelining keeps hurting); the "
               "WP2 recovery\nis largest on rarely-read connections and "
               "persists as n grows.\n";
  return ok ? 0 : 1;
}
