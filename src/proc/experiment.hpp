// The experiment driver behind every Table-1 row: run the golden system,
// the WP1 system and the WP2 system under a relay-station configuration,
// measure cycles and throughput, check τ-filtered equivalence and the
// program's final memory, and compare against the static m/(m+n) bound.
//
// These entry points call sim::SimOracle directly (the same
// run_experiment and wp2_throughput the evaluation daemon serves): the
// golden reference of a (program, cpu) pair is simulated once, cached, and
// replayed for every subsequent evaluation — a sweep over one program, or
// the optimizer's exhaustive candidate scan, runs the golden exactly once.
// Results are bit-identical to the fresh-golden path (differential suite:
// tests/test_sim_oracle.cpp). A failing run throws the oracle's own
// exception.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "proc/cpu.hpp"
#include "proc/programs.hpp"

namespace wp::proc {

/// A named relay-station configuration (one Table-1 row).
struct RsConfig {
  std::string label;               ///< e.g. "Only CU-IC", "All 1 (no CU-IC)"
  std::map<std::string, int> rs;   ///< per-connection counts; missing = 0
};

struct ExperimentRow {
  std::string label;
  std::uint64_t golden_cycles = 0;
  std::uint64_t wp1_cycles = 0;
  std::uint64_t wp2_cycles = 0;
  double th_wp1 = 1.0;        ///< golden_cycles / wp1_cycles
  double th_wp2 = 1.0;        ///< golden_cycles / wp2_cycles
  double improvement = 0.0;   ///< (th_wp2 - th_wp1) / th_wp1
  double static_wp1 = 1.0;    ///< min-cycle-ratio prediction m/(m+n)
  bool wp1_equivalent = true;
  bool wp2_equivalent = true;
  bool result_ok = true;      ///< program verify() on all three runs
  std::string detail;         ///< first failure, if any
};

struct ExperimentOptions {
  bool check_equivalence = true;  ///< trace-compare WP runs vs golden
  bool verify_result = true;      ///< check final data memory
  std::uint64_t max_cycles = 2000000;
  std::size_t fifo_capacity = 16;
};

/// Runs one configuration against the process-wide shared simulation
/// oracle (sim::SimOracle::shared()): WP1/WP2 are simulated fresh, the
/// golden side is a cache hit after the first evaluation of the program.
ExperimentRow run_experiment(const ProgramSpec& program,
                             const CpuConfig& cpu, const RsConfig& config,
                             const ExperimentOptions& options = {});

/// Table 1 configurations, extraction-sort section (rows 1–13): ideal, one
/// RS on each single connection, all-1 except CU-IC, and the optimizer's
/// best all-1-with-relief placement.
std::vector<RsConfig> table1_sort_configs();

/// Table 1 configurations, matrix-multiply section (rows 1–25): the sort
/// set plus the all-1-and-2-on-one sweeps, optimal-2, all-2, all-2-and-1.
std::vector<RsConfig> table1_matmul_configs();

/// Builds the "Optimal ..." configuration by exhaustively relieving up to
/// `budget` connections from `demand` down to `relieved`, maximizing the
/// simulated WP2 throughput.
RsConfig optimal_config(const std::string& label, const ProgramSpec& program,
                        const CpuConfig& cpu,
                        const std::map<std::string, int>& demand,
                        const std::map<std::string, int>& relieved,
                        int budget);

}  // namespace wp::proc
