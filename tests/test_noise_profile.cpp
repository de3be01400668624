// Tests for the extension components: latency-noise injection through
// noise stations (the executable form of latency-insensitivity) and the
// communication profiler.
#include <gtest/gtest.h>

#include "util/assert.hpp"

#include "core/procs.hpp"
#include "core/profile.hpp"
#include "core/system.hpp"
#include "proc/blocks.hpp"
#include "proc/experiment.hpp"
#include "util/rng.hpp"

namespace wp {
namespace {

// ------------------------------------------------------------ noise stations
// The StallInjector suite tests noise stations: relay stations with a
// stall probability, which inject stalls into a channel.

TEST(StallInjector, TransparentAtZeroProbabilityUpToOneRs) {
  // p = 0: behaves as exactly one relay station (checked via a ring's
  // throughput dropping from 1 to m/(m+1)).
  SystemSpec spec;
  for (int i = 0; i < 3; ++i)
    spec.add_process("p" + std::to_string(i), [i]() {
      return std::make_unique<IdentityProcess>("p" + std::to_string(i),
                                               static_cast<Word>(i));
    });
  for (int i = 0; i < 3; ++i)
    spec.add_channel("p" + std::to_string(i), "out",
                     "p" + std::to_string((i + 1) % 3), "in");
  NoiseOptions noise;
  noise.stall_probability = 1e-12;  // effectively 0, but stations spliced
  LidSystem lid = build_lid(spec, ShellOptions{}, false, noise);
  EXPECT_EQ(lid.network->relay_station_count(), 3u);  // one per channel
  for (int i = 0; i < 3000; ++i) lid.network->step();
  const double th =
      static_cast<double>(lid.shells.at("p0")->stats().firings) / 3000.0;
  EXPECT_NEAR(th, 0.5, 0.01);  // 3 tokens / (3 + 3 noise stations)
}

class NoiseEquivalence
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(NoiseEquivalence, AnyCongestionPreservesBehaviour) {
  const auto [probability, seed] = GetParam();
  SystemSpec spec;
  Rng rng(seed);
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t proc_seed = rng();
    spec.add_process("m" + std::to_string(i), [proc_seed]() {
      Rng r(proc_seed);
      return std::make_unique<RandomMooreProcess>("m", 2, 2, 4, r);
    });
  }
  for (int i = 0; i < 3; ++i) {
    spec.add_channel("m" + std::to_string(i), "out0",
                     "m" + std::to_string((i + 1) % 3), "in0");
    spec.add_channel("m" + std::to_string(i), "out1",
                     "m" + std::to_string((i + 2) % 3), "in1");
  }
  spec.set_all_rs(1);

  GoldenSim golden(spec, true);
  for (int i = 0; i < 250; ++i) golden.step();

  for (const bool oracle : {false, true}) {
    ShellOptions options;
    options.use_oracle = oracle;
    NoiseOptions noise;
    noise.stall_probability = probability;
    noise.seed = seed;
    LidSystem lid = build_lid(spec, options, true, noise);
    for (int i = 0; i < 6000; ++i) lid.network->step();
    const auto eq = check_equivalence(golden.trace(), lid.trace);
    ASSERT_TRUE(eq.equivalent)
        << "p=" << probability << " seed=" << seed << ": " << eq.detail;
    ASSERT_GT(eq.events_checked, 100u) << "system starved";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NoiseEquivalence,
    ::testing::Combine(::testing::Values(0.05, 0.2, 0.5, 0.9),
                       ::testing::Values(1u, 2u, 3u)));

TEST(StallInjector, CpuSurvivesCongestion) {
  // The full processor, every channel noisy: results and equivalence hold.
  const proc::ProgramSpec program = proc::extraction_sort_program(8, 3);
  SystemSpec spec = proc::make_cpu_system(program, {});
  GoldenSim golden(spec, true);
  golden.run_until_halt(100000);

  ShellOptions shell;
  shell.use_oracle = true;
  NoiseOptions noise;
  noise.stall_probability = 0.3;
  noise.seed = 9;
  LidSystem lid = build_lid(spec, shell, true, noise);
  lid.run_until_halt(2000000);
  EXPECT_TRUE(lid.shells.at("CU")->halted());
  const auto eq = check_equivalence(golden.trace(), lid.trace);
  EXPECT_TRUE(eq.equivalent) << eq.detail;
  std::string error;
  EXPECT_TRUE(program.verify(
      dynamic_cast<const proc::DcacheBlock&>(lid.shells.at("DC")->process())
          .memory(),
      &error))
      << error;
}

// ---------------------------------------------------------------- Profiler

TEST(Profiler, DutyCycleExcitationRateMeasured) {
  SystemSpec spec;
  spec.add_process("src", []() { return std::make_unique<CounterSource>("s"); });
  spec.add_process("duty", []() {
    return std::make_unique<DutyCycleProcess>("duty", 4);
  });
  spec.add_process("echo", []() {
    return std::make_unique<IdentityProcess>("echo", 0);
  });
  spec.add_channel("src", "out", "duty", "a");
  spec.add_channel("duty", "out", "echo", "in");
  spec.add_channel("echo", "out", "duty", "b");

  // No halting process: profile a fixed window.
  const CommunicationProfile profile = profile_communication(spec, 1000);
  EXPECT_NEAR(profile.at("duty", "a").excitation_rate(), 1.0, 1e-9);
  EXPECT_NEAR(profile.at("duty", "b").excitation_rate(), 0.25, 0.01);
  EXPECT_NEAR(profile.at("echo", "in").excitation_rate(), 1.0, 1e-9);
}

TEST(Profiler, CpuProfileMatchesTable1Intuition) {
  const proc::ProgramSpec program = proc::extraction_sort_program(16, 1);
  const SystemSpec spec = proc::make_cpu_system(program, {});
  const CommunicationProfile profile = profile_communication(spec, 200000);

  // The CU reads the instruction stream nearly always; the RF reads the
  // load return rarely; the DC reads the store data rarely. This ordering
  // is exactly why Table 1 shows +0% on CU-IC and ~+49% on RF-DC.
  const double cu_instr = profile.at("CU", "instr").excitation_rate();
  const double cu_flags = profile.at("CU", "flags").excitation_rate();
  const double rf_load = profile.at("RF", "load").excitation_rate();
  const double rf_ctl = profile.at("RF", "ctl").excitation_rate();
  EXPECT_GT(cu_instr, 0.6);  // sort stalls leave some bubble slots
  EXPECT_LT(cu_flags, 0.3);
  EXPECT_LT(rf_load, 0.3);
  EXPECT_DOUBLE_EQ(rf_ctl, 1.0);
}

TEST(Profiler, Wp2EstimateRanksLoops) {
  const proc::ProgramSpec program = proc::extraction_sort_program(16, 1);
  const SystemSpec spec = proc::make_cpu_system(program, {});
  const CommunicationProfile profile = profile_communication(spec, 200000);

  auto g = proc::make_cpu_graph();
  g.set_relay_stations(g.find_node("RF"), g.find_node("DC"), 1);
  g.set_relay_stations(g.find_node("CU"), g.find_node("IC"), 1);
  g.set_relay_stations(g.find_node("IC"), g.find_node("CU"), 1);
  // Map each connection to the consumer input whose excitation gates it.
  const std::map<std::string, std::string> edge_to_input = {
      {"CU-IC", "CU.instr"}, {"RF-DC", "DC.store_data"},
      {"DC-RF", "RF.load"},  {"ALU-CU", "CU.flags"}};
  const auto estimates = estimate_wp2(g, profile, edge_to_input);
  ASSERT_FALSE(estimates.empty());
  // The worst estimated loop must be the fetch loop (high excitation),
  // not the rarely-excited RF-DC loop.
  EXPECT_NE(estimates.front().loop.find("IC"), std::string::npos);
  for (const auto& est : estimates) {
    if (est.loop.find("DC") != std::string::npos &&
        est.loop.find("RF") != std::string::npos &&
        est.loop.find("CU") == std::string::npos &&
        est.loop.find("ALU") == std::string::npos) {
      EXPECT_GT(est.wp2, 0.9);  // RF<->DC loop: barely excited
    }
  }
}

TEST(Profiler, StrictProcessesReportFullExcitation) {
  SystemSpec spec;
  spec.add_process("a", []() { return std::make_unique<IdentityProcess>("a", 0); });
  spec.add_process("b", []() { return std::make_unique<IdentityProcess>("b", 1); });
  spec.add_channel("a", "out", "b", "in");
  spec.add_channel("b", "out", "a", "in");
  const CommunicationProfile profile = profile_communication(spec, 100);
  for (const auto& input : profile.inputs) {
    EXPECT_EQ(input.firings, 100u);
    EXPECT_DOUBLE_EQ(input.excitation_rate(), 1.0);
  }
}

}  // namespace
}  // namespace wp
