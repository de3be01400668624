// Property tests over random programs: for arbitrary terminating programs,
// arbitrary relay-station configurations and both micro-architectures, the
// wire-pipelined executions must match the golden machine exactly —
// τ-filtered traces, final data memory, and retired-instruction counts.
#include <gtest/gtest.h>

#include "util/assert.hpp"

#include "proc/blocks.hpp"
#include "proc/cpu.hpp"
#include "testkit/fuzz.hpp"
#include "util/rng.hpp"

namespace wp::proc {
namespace {

using testkit::RandomProgramConfig;
using testkit::random_program;

std::map<std::string, int> random_rs_map(wp::Rng& rng) {
  std::map<std::string, int> rs;
  for (const auto& name : cpu_connections())
    rs[name] = static_cast<int>(rng.below(3));
  return rs;
}

class CpuFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuFuzz, GoldenWp1Wp2AgreeOnRandomPrograms) {
  const std::uint64_t seed = GetParam();
  RandomProgramConfig config;
  config.seed = seed;
  const ProgramSpec program = random_program(config);

  wp::Rng rng(seed ^ 0xFACEu);
  CpuConfig cpu;
  cpu.multicycle = rng.chance(0.3);
  cpu.relax_squashed_fetches = rng.chance(0.3);

  SystemSpec spec = make_cpu_system(program, cpu);
  GoldenSim golden(spec, true);
  const std::uint64_t golden_cycles = golden.run_until_halt(300000);
  ASSERT_TRUE(golden.halted()) << "golden did not halt, seed " << seed;
  const auto& golden_dc =
      dynamic_cast<const DcacheBlock&>(golden.process("DC"));
  const auto& golden_cu =
      dynamic_cast<const ControlUnit&>(golden.process("CU"));

  spec.set_rs_map(random_rs_map(rng));
  for (const bool oracle : {false, true}) {
    ShellOptions shell;
    shell.use_oracle = oracle;
    shell.fifo_capacity = 1 + rng.below(16);
    LidSystem lid = build_lid(spec, shell, true);
    const std::uint64_t cycles = lid.run_until_halt(3000000);
    ASSERT_TRUE(lid.network->halted(lid.shells.at("CU")))
        << (oracle ? "WP2" : "WP1") << " did not halt, seed " << seed;
    ASSERT_GE(cycles, golden_cycles) << "WP faster than golden?!";

    const auto eq = check_equivalence(golden.trace(), lid.trace);
    ASSERT_TRUE(eq.equivalent)
        << (oracle ? "WP2" : "WP1") << " seed " << seed << ": " << eq.detail;

    const auto& dc = dynamic_cast<const DcacheBlock&>(
        lid.network->process(lid.shells.at("DC")));
    ASSERT_EQ(dc.memory(), golden_dc.memory())
        << (oracle ? "WP2" : "WP1") << " final memory differs, seed "
        << seed;

    const auto& cu = dynamic_cast<const ControlUnit&>(
        lid.network->process(lid.shells.at("CU")));
    ASSERT_EQ(cu.instructions_retired(), golden_cu.instructions_retired())
        << "retired count differs, seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, CpuFuzz,
                         ::testing::Range<std::uint64_t>(1, 31));

class CpuFuzzNoise : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuFuzzNoise, CongestionNeverChangesResults) {
  const std::uint64_t seed = GetParam();
  RandomProgramConfig config;
  config.seed = seed;
  config.blocks = 4;
  const ProgramSpec program = random_program(config);

  SystemSpec spec = make_cpu_system(program, {});
  GoldenSim golden(spec, true);
  golden.run_until_halt(300000);
  ASSERT_TRUE(golden.halted());
  const auto& golden_dc =
      dynamic_cast<const DcacheBlock&>(golden.process("DC"));

  wp::Rng rng(seed);
  NoiseOptions noise;
  noise.stall_probability = 0.1 + 0.5 * rng.uniform();
  noise.seed = rng();
  ShellOptions shell;
  shell.use_oracle = true;
  LidSystem lid = build_lid(spec, shell, true, noise);
  lid.run_until_halt(5000000);
  ASSERT_TRUE(lid.network->halted(lid.shells.at("CU"))) << "seed " << seed;
  const auto eq = check_equivalence(golden.trace(), lid.trace);
  ASSERT_TRUE(eq.equivalent) << "seed " << seed << ": " << eq.detail;
  const auto& dc = dynamic_cast<const DcacheBlock&>(
      lid.network->process(lid.shells.at("DC")));
  ASSERT_EQ(dc.memory(), golden_dc.memory()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Programs, CpuFuzzNoise,
                         ::testing::Range<std::uint64_t>(100, 116));

TEST(Fuzz, GeneratorIsDeterministic) {
  RandomProgramConfig config;
  config.seed = 42;
  EXPECT_EQ(random_program(config).source, random_program(config).source);
  config.seed = 43;
  EXPECT_NE(random_program(config).source,
            random_program(RandomProgramConfig{42}).source);
}

TEST(Fuzz, GeneratedProgramsAssemble) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomProgramConfig config;
    config.seed = seed;
    const ProgramSpec program = random_program(config);
    EXPECT_NO_THROW({
      SystemSpec spec = make_cpu_system(program, {});
      (void)spec;
    }) << "seed " << seed;
  }
}

}  // namespace
}  // namespace wp::proc
