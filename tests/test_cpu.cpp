// Integration tests of the full case study: program correctness on all
// three executions, Table-1 invariants (WP1 = m/(m+n), WP2 >= WP1, CU-IC
// domination), the multicycle observation of §3, and the experiment driver.
#include <gtest/gtest.h>

#include "graph/cycle_ratio.hpp"
#include "graph/throughput.hpp"
#include "proc/experiment.hpp"
#include "sim/oracle.hpp"

namespace wp::proc {
namespace {

/// Simulated WP2 throughput of one configuration, from the shared oracle
/// (the optimizer's objective).
double wp2_throughput(const ProgramSpec& program,
                      const std::map<std::string, int>& rs) {
  return sim::SimOracle::shared().wp2_throughput(program, {}, rs);
}

class ProgramCorrectness
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(ProgramCorrectness, GoldenWp1Wp2AllVerify) {
  const auto [multicycle, use_matmul] = GetParam();
  const ProgramSpec prog =
      use_matmul ? matmul_program(3, 5) : extraction_sort_program(8, 5);
  CpuConfig cpu;
  cpu.multicycle = multicycle;
  RsConfig cfg{"mixed", {{"CU-IC", 1}, {"RF-DC", 2}, {"ALU-RF", 1}}};
  const ExperimentRow row = run_experiment(prog, cpu, cfg);
  EXPECT_TRUE(row.result_ok) << row.detail;
  EXPECT_TRUE(row.wp1_equivalent) << row.detail;
  EXPECT_TRUE(row.wp2_equivalent) << row.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProgramCorrectness,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param) ? "multicycle"
                                                 : "pipelined") +
             (std::get<1>(param_info.param) ? "_matmul" : "_sort");
    });

TEST(CpuSystem, IdealLidMatchesGoldenCycles) {
  const ProgramSpec prog = extraction_sort_program(8, 3);
  const ExperimentRow row =
      run_experiment(prog, {}, {"ideal", {}});
  EXPECT_EQ(row.wp1_cycles, row.golden_cycles);
  EXPECT_EQ(row.wp2_cycles, row.golden_cycles);
  EXPECT_DOUBLE_EQ(row.th_wp1, 1.0);
  EXPECT_DOUBLE_EQ(row.th_wp2, 1.0);
}

/// Table-1 invariant: simulated WP1 throughput equals the static loop bound
/// m/(m+n) for every single-connection configuration.
class Wp1MatchesStatic : public ::testing::TestWithParam<std::string> {};

TEST_P(Wp1MatchesStatic, SingleConnectionRows) {
  const ProgramSpec prog = extraction_sort_program(8, 3);
  RsConfig cfg{"Only " + GetParam(), {{GetParam(), 1}}};
  ExperimentOptions options;
  options.check_equivalence = false;  // speed: correctness covered above
  const ExperimentRow row = run_experiment(prog, {}, cfg, options);
  EXPECT_NEAR(row.th_wp1, row.static_wp1, 0.02) << GetParam();
  EXPECT_GE(row.th_wp2, row.th_wp1 - 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllConnections, Wp1MatchesStatic,
                         ::testing::ValuesIn(cpu_connections()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Table1Shape, CuIcDominatesAndGainsLeast) {
  const ProgramSpec prog = extraction_sort_program(8, 3);
  ExperimentOptions options;
  options.check_equivalence = false;
  const ExperimentRow cu_ic =
      run_experiment(prog, {}, {"Only CU-IC", {{"CU-IC", 1}}}, options);
  const ExperimentRow rf_dc =
      run_experiment(prog, {}, {"Only RF-DC", {{"RF-DC", 1}}}, options);
  // CU-IC: one RS segments both wires of the bundle -> Th = 2/4 = 0.5, the
  // worst row of the table, with (almost) no WP2 gain.
  EXPECT_NEAR(cu_ic.th_wp1, 0.5, 0.01);
  EXPECT_LT(cu_ic.improvement, 0.10);
  // RF-DC: rarely-used link -> the biggest WP2 recovery of the table.
  EXPECT_NEAR(rf_dc.th_wp1, 2.0 / 3.0, 0.01);
  EXPECT_GT(rf_dc.improvement, 0.35);
  EXPECT_GT(rf_dc.th_wp2, 0.95);
}

TEST(Table1Shape, MulticycleCuIcShowsLargestRelativeGain) {
  // §3: "the CU-IC loop is excited only every 5 cycles ... that's the
  // reason of the best improvement of WP2 in this loop" (multicycle case).
  const ProgramSpec prog = extraction_sort_program(8, 3);
  CpuConfig multi;
  multi.multicycle = true;
  ExperimentOptions options;
  options.check_equivalence = false;
  const ExperimentRow pipe =
      run_experiment(prog, {}, {"Only CU-IC", {{"CU-IC", 1}}}, options);
  const ExperimentRow mc =
      run_experiment(prog, multi, {"Only CU-IC", {{"CU-IC", 1}}}, options);
  EXPECT_GT(mc.improvement, 0.25);
  EXPECT_GT(mc.improvement, pipe.improvement + 0.15);
}

TEST(Table1Shape, MoreRelayStationsNeverRaiseThroughput) {
  const ProgramSpec prog = extraction_sort_program(8, 3);
  ExperimentOptions options;
  options.check_equivalence = false;
  double prev_wp1 = 1.1, prev_wp2 = 1.1;
  for (int n : {0, 1, 2, 3}) {
    RsConfig cfg{"sweep", {{"RF-ALU", n}}};
    const ExperimentRow row = run_experiment(prog, {}, cfg, options);
    EXPECT_LE(row.th_wp1, prev_wp1 + 1e-9) << n;
    EXPECT_LE(row.th_wp2, prev_wp2 + 1e-9) << n;
    prev_wp1 = row.th_wp1;
    prev_wp2 = row.th_wp2;
  }
}

TEST(CpuGraph, LoopInventoryMatchesTopology) {
  const auto report = wp::graph::analyze_throughput(make_cpu_graph());
  // Fig. 1 loops: CU-IC digon, CU-ALU digon, RF-ALU digon, RF-DC digon,
  // CU->RF->ALU->CU, ALU->DC->RF->ALU, CU->DC->RF->ALU->CU.
  EXPECT_EQ(report.loops.size(), 7u);
  EXPECT_DOUBLE_EQ(report.system_throughput, 1.0);  // no RS yet
  // With one RS on the CU-IC bundle (both edges), that loop dominates.
  const auto pipelined =
      wp::graph::analyze_throughput(make_cpu_graph_with_rs({{"CU-IC", 1}}));
  EXPECT_NEAR(pipelined.system_throughput, 0.5, 1e-12);
  EXPECT_NE(pipelined.critical_loop.find("IC"), std::string::npos);
}

TEST(Configs, Table1ListsHaveExpectedShape) {
  const auto sort_cfgs = table1_sort_configs();
  ASSERT_EQ(sort_cfgs.size(), 12u);  // ideal + 10 single + all-1
  EXPECT_EQ(sort_cfgs.front().label, "All 0 (ideal)");
  EXPECT_EQ(sort_cfgs.back().label, "All 1 (no CU-IC)");
  EXPECT_EQ(sort_cfgs.back().rs.count("CU-IC"), 0u);
  EXPECT_EQ(sort_cfgs.back().rs.size(), 9u);

  const auto mm_cfgs = table1_matmul_configs();
  ASSERT_EQ(mm_cfgs.size(), 24u);  // + 10 "all-1-and-2" + all-2 + all-2-and-1
  const auto& two_cu_ic = mm_cfgs[15];  // "All 1 and 2 CU-IC"
  EXPECT_EQ(two_cu_ic.label, "All 1 and 2 CU-IC");
  EXPECT_EQ(two_cu_ic.rs.at("CU-IC"), 2);
  EXPECT_EQ(two_cu_ic.rs.at("CU-RF"), 1);
}

TEST(Optimal, RsOptimizerBeatsAll1) {
  // Relieving up to two connections from the all-1 demand must give WP2
  // throughput at least as good as plain all-1.
  const ProgramSpec prog = extraction_sort_program(8, 3);
  std::map<std::string, int> demand, relieved;
  for (const auto& name : cpu_connections())
    if (name != "CU-IC") {
      demand[name] = 1;
      relieved[name] = 0;
    }
  const RsConfig best =
      optimal_config("Optimal 1 (no CU-IC)", prog, {}, demand, relieved, 2);
  const double all1 = wp2_throughput(prog, demand);
  const double opt = wp2_throughput(prog, best.rs);
  EXPECT_GE(opt, all1 - 1e-9);
}

TEST(Experiment, SimulatedWp2ThroughputIdealIsOne) {
  const ProgramSpec prog = extraction_sort_program(8, 3);
  EXPECT_NEAR(wp2_throughput(prog, {}), 1.0, 1e-9);
}

class PointerChase : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PointerChase, SumsTheListOnAllThreeExecutions) {
  const ProgramSpec prog = pointer_chase_program(24, GetParam());
  RsConfig cfg{"mixed", {{"DC-RF", 2}, {"CU-IC", 1}}};
  const ExperimentRow row = run_experiment(prog, {}, cfg);
  EXPECT_TRUE(row.result_ok) << row.detail;
  EXPECT_TRUE(row.wp1_equivalent && row.wp2_equivalent) << row.detail;
  EXPECT_GE(row.th_wp2, row.th_wp1 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointerChase,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(PointerChaseProgram, TerminatesAcrossSizes) {
  for (const std::size_t n : {2u, 3u, 8u, 64u}) {
    const ProgramSpec prog = pointer_chase_program(n, 7);
    GoldenSim golden(make_cpu_system(prog, {}), false);
    golden.run_until_halt(500000);
    ASSERT_TRUE(golden.halted()) << n;
  }
}

}  // namespace
}  // namespace wp::proc
