// Shared helpers for the table-reproduction benches: renders ExperimentRow
// lists in the layout of the paper's Table 1 (Cycles | Th WP1 | Th WP2 |
// WP2 vs WP1 %) plus our extra diagnostics, mirrors rows to CSV when
// WIREPIPE_CSV is set in the environment, and reports the simulation
// oracle's golden-replay savings. JSON artifacts are written with
// wp::json::JsonWriter (src/util/json.hpp); flag parsing lives in
// wp::cli::ArgParser (src/cli/arg_parser.hpp), shared with the service
// binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "proc/experiment.hpp"
#include "sim/oracle.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace wp::bench {

// ------------------------------------------------- oracle replay report

/// Prints how many golden replays the simulation oracle saved between two
/// stats snapshots: pre-oracle, every evaluation re-simulated the golden.
inline void print_golden_replays(const std::string& what,
                                 const sim::GoldenCache::Stats& before,
                                 const sim::GoldenCache::Stats& after,
                                 std::ostream& os = std::cout) {
  const std::uint64_t evaluations =
      (after.hits + after.misses) - (before.hits + before.misses);
  const std::uint64_t runs = after.golden_runs - before.golden_runs;
  os << what << ": " << evaluations
     << " golden-referenced evaluations, golden simulated " << runs
     << "x (pre-oracle: " << evaluations << "x), cache hits "
     << (after.hits - before.hits) << "\n";
}

/// Prints the rows as one Table-1 section. Returns whether every row
/// passed: its equivalence and result checks hold, and WP2 sustains at
/// least WP1's throughput (the paper's claim for every configuration).
inline bool print_table1(const std::string& title,
                         const std::vector<proc::ExperimentRow>& rows,
                         std::ostream& os = std::cout) {
  TextTable table({"RS Configuration", "Cycles", "Th WP1", "Th WP2",
                   "WP2 vs WP1 (%)", "static m/(m+n)", "checks"});
  table.add_section(title);
  table.add_separator();
  int index = 1;
  bool all_passed = true;
  for (const auto& row : rows) {
    const bool checks_ok =
        row.wp1_equivalent && row.wp2_equivalent && row.result_ok;
    all_passed = all_passed && checks_ok && row.th_wp2 >= row.th_wp1;
    const std::string checks = checks_ok ? "ok" : ("FAIL: " + row.detail);
    table.add_row({std::to_string(index++) + "  " + row.label,
                   std::to_string(row.wp2_cycles), fmt_fixed(row.th_wp1, 3),
                   fmt_fixed(row.th_wp2, 3), fmt_percent(row.improvement),
                   fmt_fixed(row.static_wp1, 3), checks});
  }
  table.print(os);
  os << "Cycles column: WP2 run, as in the paper's Table 1 "
        "(ideal row: golden cycles "
     << (rows.empty() ? 0 : rows.front().golden_cycles) << ").\n\n";
  return all_passed;
}

/// Appends rows to $WIREPIPE_CSV (if set) for downstream plotting.
inline void maybe_write_csv(const std::string& experiment,
                            const std::vector<proc::ExperimentRow>& rows) {
  const char* path = std::getenv("WIREPIPE_CSV");
  if (path == nullptr) return;
  std::ofstream file(path, std::ios::app);
  CsvWriter csv(file);
  for (const auto& row : rows) {
    csv.row({experiment, row.label, std::to_string(row.golden_cycles),
             std::to_string(row.wp1_cycles), std::to_string(row.wp2_cycles),
             fmt_fixed(row.th_wp1, 6), fmt_fixed(row.th_wp2, 6),
             fmt_fixed(row.improvement, 6), fmt_fixed(row.static_wp1, 6)});
  }
}

}  // namespace wp::bench
