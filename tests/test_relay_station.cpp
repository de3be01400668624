// Relay-station protocol tests: latency, the two-register skid behaviour,
// stop propagation, the noise station's injected stalls, and a property
// test that no token is ever lost or reordered under adversarial stall
// patterns, with and without noise.
#include <gtest/gtest.h>

#include <optional>

#include "core/network.hpp"
#include "core/relay_station.hpp"
#include "core/wire.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace wp {
namespace {

/// Drives a chain of n relay stations by hand: a scripted producer that
/// respects stop (holds its token) and a consumer that stalls on demand.
class RsHarness {
 public:
  /// A positive `noise` makes every station a noise station (seeds 1..n).
  explicit RsHarness(int num_stations, double noise = 0.0)
      : wires_(static_cast<std::size_t>(num_stations) + 1) {
    for (int i = 0; i < num_stations; ++i)
      stations_.emplace_back(static_cast<WireId>(i),
                             static_cast<WireId>(i) + 1, noise,
                             static_cast<std::uint64_t>(i) + 1);
  }

  /// One cycle: producer offers `offer` (or holds the previously refused
  /// token), consumer stalls if `stall`. Returns the token delivered to the
  /// consumer this cycle (if any).
  std::optional<Word> step(std::optional<Word> offer, bool stall) {
    // eval phase
    for (auto& rs : stations_) rs.eval(wires_);
    // producer drive: held token takes precedence
    if (!held_ && offer) held_ = offer;
    wires_.front().drive(held_ ? Token::make(*held_) : Token::tau());
    // consumer stop line
    wires_.back().stop = stall;

    // commit phase
    std::optional<Word> delivered;
    const Wire& last = wires_.back();
    if (last.valid && !last.stop) delivered = last.value;
    for (auto& rs : stations_) rs.commit(wires_);
    if (held_ && !wires_.front().stop) held_.reset();  // accepted
    return delivered;
  }

  bool producer_blocked() const { return held_.has_value(); }
  RelayStation& station(int i) { return stations_[static_cast<std::size_t>(i)]; }

 private:
  std::vector<Wire> wires_;
  std::vector<RelayStation> stations_;
  std::optional<Word> held_;
};

TEST(RelayStation, OneStationOneCycleLatency) {
  RsHarness h(1);
  EXPECT_FALSE(h.step(7, false).has_value());  // enters the station
  auto out = h.step(std::nullopt, false);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, 7u);
}

TEST(RelayStation, ChainLatencyEqualsLengthPlusEntry) {
  // A token spends one cycle entering the chain and one cycle per station:
  // offered at cycle 0, it reaches the consumer at cycle n, i.e. on the
  // (n+1)-th step call.
  for (int n : {1, 2, 3, 5, 8}) {
    RsHarness h(n);
    std::optional<Word> out = h.step(42, false);
    int calls = 1;
    while (!out.has_value() && calls < 20) {
      out = h.step(std::nullopt, false);
      ++calls;
    }
    ASSERT_TRUE(out.has_value()) << "n=" << n;
    EXPECT_EQ(calls, n + 1) << "n=" << n;
    EXPECT_EQ(*out, 42u);
  }
}

TEST(RelayStation, FullThroughputBackToBack) {
  RsHarness h(3);
  int delivered = 0;
  for (Word v = 0; v < 50; ++v) {
    auto out = h.step(v, false);
    if (out) {
      EXPECT_EQ(*out, static_cast<Word>(delivered));
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 50 - 3);  // pipeline fill only
}

TEST(RelayStation, StallBuffersIntoAux) {
  RsHarness h(1);
  h.step(1, true);   // token enters main while consumer stalls
  h.step(2, true);   // second token must land in aux
  EXPECT_EQ(h.station(0).occupancy(), 2);
  // Third token is refused (stop reaches the producer), not lost.
  h.step(3, true);
  EXPECT_EQ(h.station(0).occupancy(), 2);
  EXPECT_TRUE(h.producer_blocked());
  // Release: 1, 2, 3 must come out in order.
  auto a = h.step(std::nullopt, false);
  auto b = h.step(std::nullopt, false);
  auto c = h.step(std::nullopt, false);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);
  EXPECT_EQ(*c, 3u);
}

TEST(RelayStation, OccupancyNeverExceedsTwo) {
  Rng rng(99);
  RsHarness h(4);
  Word next = 0;
  for (int cycle = 0; cycle < 2000; ++cycle) {
    const bool stall = rng.chance(0.5);
    std::optional<Word> offer;
    if (rng.chance(0.7)) offer = next;
    auto before = next;
    h.step(offer, stall);
    if (offer && !h.producer_blocked() && next == before) ++next;
    for (int i = 0; i < 4; ++i) {
      ASSERT_LE(h.station(i).occupancy(), 2);
      ASSERT_GE(h.station(i).occupancy(), 0);
    }
  }
}

/// The key property: an adversarially stalled chain delivers exactly the
/// produced sequence, in order, without loss or duplication. With `noise`
/// the stations also withhold their own token at random.
void check_lossless_in_order(int stations, std::uint64_t seed, double noise) {
  Rng rng(seed);
  RsHarness h(stations, noise);
  std::vector<Word> produced, consumed;
  Word next = 100;
  for (int cycle = 0; cycle < 3000; ++cycle) {
    const bool stall = rng.chance(0.4);
    std::optional<Word> offer;
    const bool was_blocked = h.producer_blocked();
    if (rng.chance(0.6)) offer = next;
    auto out = h.step(offer, stall);
    if (offer && !was_blocked) {
      produced.push_back(next);  // the producer committed to this token
      ++next;
    }
    if (out) consumed.push_back(*out);
  }
  // Drain. A plain chain empties within 4n + 8 cycles; noise stations need
  // longer because they still stall at random.
  const int drain = noise > 0.0 ? 64 * stations + 64 : 4 * stations + 8;
  for (int i = 0; i < drain; ++i) {
    auto out = h.step(std::nullopt, false);
    if (out) consumed.push_back(*out);
  }
  ASSERT_EQ(consumed.size(), produced.size());
  EXPECT_EQ(consumed, produced);
}

class RelayStationProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RelayStationProperty, LosslessInOrderUnderRandomStalls) {
  const auto [stations, seed] = GetParam();
  check_lossless_in_order(stations, seed, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RelayStationProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 6),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

class NoiseStationProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, double>> {
};

TEST_P(NoiseStationProperty, LosslessInOrderUnderRandomStalls) {
  const auto [stations, seed, noise] = GetParam();
  check_lossless_in_order(stations, seed, noise);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NoiseStationProperty,
    ::testing::Combine(::testing::Values(1, 3), ::testing::Values(1u, 2u),
                       ::testing::Values(0.3, 0.9)));

TEST(RelayStation, ResetClearsState) {
  RsHarness h(1);
  h.step(5, true);
  h.step(6, true);
  EXPECT_EQ(h.station(0).occupancy(), 2);
  h.station(0).reset();
  EXPECT_EQ(h.station(0).occupancy(), 0);
  EXPECT_EQ(h.station(0).tokens_forwarded(), 0u);
}

TEST(RelayStation, NoiseStationWithholdsAndReplaysAfterReset) {
  // p = 1: the station takes one token into main, one into aux, then holds
  // the stop high and never forwards.
  RsHarness jammed(1, 1.0);
  for (Word v = 0; v < 6; ++v) EXPECT_FALSE(jammed.step(v, false).has_value());
  EXPECT_EQ(jammed.station(0).occupancy(), 2);
  EXPECT_TRUE(jammed.producer_blocked());

  // Reset rewinds the station's Rng: the same inputs give the same output
  // schedule.
  RsHarness h(1, 0.5);
  auto schedule = [&h]() {
    std::vector<int> out;
    for (int c = 0; c < 64; ++c) out.push_back(h.step(7, false) ? 1 : 0);
    return out;
  };
  const std::vector<int> first = schedule();
  for (int c = 0; c < 8; ++c) h.step(std::nullopt, false);  // drain
  h.station(0).reset();
  EXPECT_EQ(schedule(), first);
}

TEST(RelayStation, BadWiresRejected) {
  EXPECT_THROW(RelayStation(0, 0), ContractViolation);
  EXPECT_THROW(RelayStation(0, 1, 1.5), ContractViolation);
  Network net;
  const WireId in = net.make_wire("in");
  EXPECT_THROW(net.add_relay_station(in, in + 1), ContractViolation);
  EXPECT_THROW(net.add_relay_station(in + 1, in), ContractViolation);
  net.add_relay_station(in, net.make_wire("out"));
  EXPECT_EQ(net.relay_station_count(), 1u);
}

}  // namespace
}  // namespace wp
