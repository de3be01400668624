#include "core/relay_station.hpp"

#include "util/assert.hpp"

namespace wp {

RelayStation::RelayStation(Wire* in, Wire* out, double stall_probability,
                           std::uint64_t seed)
    : in_(in),
      out_(out),
      stall_probability_(stall_probability),
      seed_(seed),
      rng_(seed) {
  WP_REQUIRE(in_ != nullptr && out_ != nullptr,
             "relay station requires both wires");
  WP_REQUIRE(in_ != out_, "relay station input and output must differ");
  WP_REQUIRE(stall_probability >= 0.0 && stall_probability <= 1.0,
             "stall probability must be in [0, 1]");
}

// Pinned to a 64-byte boundary: see Network::step in network.cpp.
[[gnu::aligned(64)]]
void RelayStation::eval() {
  // A noise station that draws a stall withholds main; aux absorbs the
  // in-flight token in commit, so nothing is lost.
  stalling_ = stall_probability_ > 0.0 && rng_.chance(stall_probability_);
  out_->drive(stalling_ ? Token::tau() : main_);
  // Back-pressure: only when the auxiliary register is also full is the stop
  // propagated to the previous stage (paper §1).
  in_->drive_stop(aux_.valid);
}

[[gnu::aligned(64)]]
void RelayStation::commit() {
  const bool stopped_down = out_->stop() || stalling_;
  // Incoming token is transferred to us iff we did not drive stop this cycle
  // (the line we drove equals aux_.valid, which is still our current state).
  const Token incoming =
      (in_->token().valid && !aux_.valid) ? in_->token() : Token::tau();

  if (main_.valid && stopped_down) {
    // Downstream held us: keep main, absorb any in-flight token into aux.
    if (incoming.valid) {
      WP_CHECK(!aux_.valid, "relay station auxiliary register overflow");
      aux_ = incoming;
    }
  } else {
    // Either main was empty or it has been consumed downstream this cycle.
    if (main_.valid) ++tokens_forwarded_;
    if (aux_.valid) {
      // Drain the skid buffer first; our stop was high so nothing arrives.
      WP_CHECK(!incoming.valid,
               "token arrived while stop was asserted (protocol violation)");
      main_ = aux_;
      aux_ = Token::tau();
    } else {
      main_ = incoming;
    }
  }
}

void RelayStation::reset() {
  main_ = Token::tau();
  aux_ = Token::tau();
  stalling_ = false;
  tokens_forwarded_ = 0;
  rng_ = Rng(seed_);
}

int RelayStation::occupancy() const {
  return (main_.valid ? 1 : 0) + (aux_.valid ? 1 : 0);
}

}  // namespace wp
