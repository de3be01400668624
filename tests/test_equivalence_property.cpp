// Property-based equivalence tests (the heart of the paper's formal claim):
// for randomly generated Moore machines with sound-by-construction oracles,
// wired into random strongly-connected topologies with random relay-station
// counts, the WP1 and WP2 systems must be N-equivalent to the golden system
// after τ-filtering, and WP2 must never be slower than WP1.
#include <gtest/gtest.h>

#include "core/procs.hpp"
#include "core/system.hpp"
#include "testkit/rng.hpp"
#include "testkit/systems.hpp"
#include "util/rng.hpp"

namespace wp {
namespace {

using testkit::connections;
using testkit::range;
using testkit::split;

struct RandomSystem {
  SystemSpec spec;
  int num_procs = 0;
};

/// Builds a random system: a ring (guaranteeing strong connectivity, so
/// every process keeps firing) plus random chords; every input port of
/// every process is connected exactly once.
RandomSystem random_system(std::uint64_t seed) {
  Rng rng(seed);
  RandomSystem sys;
  sys.num_procs = static_cast<int>(range(rng, 2, 6));
  const int n = sys.num_procs;

  // Each process i has num_inputs(i) inputs; input 0 closes the ring from
  // process i-1; the rest are fed from random processes' outputs.
  std::vector<int> num_inputs(static_cast<std::size_t>(n));
  std::vector<int> num_outputs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    num_inputs[static_cast<std::size_t>(i)] = static_cast<int>(range(rng, 1, 3));
    num_outputs[static_cast<std::size_t>(i)] = static_cast<int>(range(rng, 1, 3));
  }

  Rng table_rng = split(rng);
  for (int i = 0; i < n; ++i) {
    const auto ni = static_cast<std::size_t>(num_inputs[static_cast<std::size_t>(i)]);
    const auto no = static_cast<std::size_t>(num_outputs[static_cast<std::size_t>(i)]);
    const std::uint64_t proc_seed = table_rng();
    sys.spec.add_process("p" + std::to_string(i), [ni, no, proc_seed]() {
      Rng r(proc_seed);
      return std::make_unique<RandomMooreProcess>(
          "m", ni, no, /*num_states=*/5, r, /*use_peek_gate=*/true);
    });
  }
  for (int i = 0; i < n; ++i) {
    const int prev = (i + n - 1) % n;
    sys.spec.add_channel("p" + std::to_string(prev),
                         "out" + std::to_string(rng.below(
                             static_cast<std::uint64_t>(
                                 num_outputs[static_cast<std::size_t>(prev)]))),
                         "p" + std::to_string(i), "in0");
    for (int port = 1; port < num_inputs[static_cast<std::size_t>(i)]; ++port) {
      const int src = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      sys.spec.add_channel(
          "p" + std::to_string(src),
          "out" + std::to_string(rng.below(static_cast<std::uint64_t>(
              num_outputs[static_cast<std::size_t>(src)]))),
          "p" + std::to_string(i), "in" + std::to_string(port));
    }
  }
  // Random relay stations per connection.
  for (const auto& name : connections(sys.spec))
    sys.spec.set_connection_rs(name, static_cast<int>(rng.below(4)));
  return sys;
}

class EquivalenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceProperty, Wp1AndWp2MatchGoldenAndWp2IsNoSlower) {
  RandomSystem sys = random_system(GetParam());

  GoldenSim golden(sys.spec, true);
  const std::uint64_t golden_cycles = 400;
  for (std::uint64_t i = 0; i < golden_cycles; ++i) golden.step();

  std::uint64_t firings_wp1 = 0, firings_wp2 = 0;
  for (const bool oracle : {false, true}) {
    ShellOptions opts;
    opts.use_oracle = oracle;
    LidSystem lid = build_lid(sys.spec, opts, true);
    for (int i = 0; i < 4000; ++i) lid.network->step();

    const auto eq = check_equivalence(golden.trace(), lid.trace);
    ASSERT_TRUE(eq.equivalent)
        << (oracle ? "WP2" : "WP1") << " seed=" << GetParam() << ": "
        << eq.detail;
    ASSERT_GT(eq.events_checked, 0u);

    std::uint64_t firings = lid.network->stats(lid.shells.at("p0")).firings;
    ASSERT_GT(firings, 0u) << "system deadlocked, seed=" << GetParam();
    (oracle ? firings_wp2 : firings_wp1) = firings;
  }
  // The oracle only relaxes constraints: WP2 progress >= WP1 progress.
  EXPECT_GE(firings_wp2 + 1, firings_wp1) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, EquivalenceProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

/// With zero relay stations, any LID system must be cycle-identical to the
/// golden one (tag t fires at cycle t for every process).
class IdealIdentityProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IdealIdentityProperty, ZeroRsFiresEveryCycle) {
  RandomSystem sys = random_system(GetParam());
  sys.spec.set_all_rs(0);
  LidSystem lid = build_lid(sys.spec, ShellOptions{}, false);
  const std::uint64_t cycles = 300;
  for (std::uint64_t i = 0; i < cycles; ++i) lid.network->step();
  for (const auto& [name, shell] : lid.shells)
    EXPECT_EQ(lid.network->stats(shell).firings, cycles) << name;
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, IdealIdentityProperty,
                         ::testing::Range<std::uint64_t>(100, 115));

/// Oracle soundness property: scrambling (poisoning) every available but
/// non-required input must not change behaviour — checked by running WP2
/// twice, with and without poisoning, and comparing traces.
class PoisonInvarianceProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PoisonInvarianceProperty, PoisoningUnrequiredInputsChangesNothing) {
  RandomSystem sys = random_system(GetParam());
  Trace traces[2];
  for (int variant = 0; variant < 2; ++variant) {
    ShellOptions opts;
    opts.use_oracle = true;
    opts.poison_unrequired = variant == 1;
    LidSystem lid = build_lid(sys.spec, opts, true);
    for (int i = 0; i < 2000; ++i) lid.network->step();
    traces[variant] = std::move(lid.trace);
  }
  EXPECT_EQ(traces[0], traces[1]) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, PoisonInvarianceProperty,
                         ::testing::Range<std::uint64_t>(200, 215));

}  // namespace
}  // namespace wp
