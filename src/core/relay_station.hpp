// Relay station (RS): the wire-pipelining element of Carloni's
// latency-insensitive protocol, as used by the paper (§1): a pipeline
// register plus one auxiliary register so that a valid datum in flight when
// a stop arrives is not lost; when the auxiliary register is also full the
// stop is propagated to the previous relay station, up to the source.
//
// The FSM has three occupancies:
//   EMPTY (0 items)  — drives τ forward, stop low backward;
//   HALF  (1 item)   — drives the main register forward, stop low;
//   FULL  (2 items)  — drives main forward, asserts stop backward.
// A forward token is accepted in a cycle iff our stop line was low in that
// cycle; our own forward token is transferred iff the downstream stop line
// is low. Both rules use lines driven from registered state, so the stop
// chain is itself pipelined hop by hop — exactly the paper's behaviour.
//
// A *noise station* is the same FSM with a stall probability: each eval it
// draws once from its own Rng and, on a hit, withholds main and behaves as
// if its consumer had stopped, emulating congestion or any other latency
// variation. No token is lost, so LID equivalence must survive any noise.
// A plain station, p = 0, draws nothing.
//
// Like a shell, a station is a Moore machine stepped by Network::step over
// the network's wire array: eval() drives both wires from registered state,
// commit() samples them. All are defined here so the step loop inlines
// them; the network steps plain stations with drive(), eval() without the
// draw, so their loop makes no call.
#pragma once

#include <vector>

#include "core/wire.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace wp {

class RelayStation {
 public:
  /// in: wire from the upstream element; out: wire to the downstream one.
  /// A positive `stall_probability` makes a noise station seeded by `seed`.
  RelayStation(WireId in, WireId out, double stall_probability = 0.0,
               std::uint64_t seed = 0)
      : in_(in),
        out_(out),
        stall_probability_(stall_probability),
        seed_(seed),
        rng_(seed) {
    WP_REQUIRE(in_ != out_, "relay station input and output must differ");
    WP_REQUIRE(stall_probability >= 0.0 && stall_probability <= 1.0,
               "stall probability must be in [0, 1]");
  }

  /// Phase 1: drive the output token and the input stop line. A noise
  /// station first draws this cycle's stall.
  void eval(std::vector<Wire>& wires) {
    if (stall_probability_ > 0.0) stalling_ = rng_.chance(stall_probability_);
    drive(wires);
  }

  /// Phase 1 without the draw: all of eval() for a plain station, whose
  /// stall is always low.
  void drive(std::vector<Wire>& wires) const {
    // A noise station that draws a stall withholds main; aux absorbs the
    // in-flight token in commit, so nothing is lost.
    Wire& out = wires[out_];
    out.value = main_.value;
    out.valid = main_.valid && !stalling_;
    // Back-pressure: only when the auxiliary register is also full is the
    // stop propagated to the previous stage (paper §1).
    wires[in_].stop = aux_.valid;
  }

  /// Phase 2: sample both wires and update the two registers.
  void commit(const std::vector<Wire>& wires) {
    const bool stopped_down = wires[out_].stop || stalling_;
    // The incoming token is transferred to us iff we did not drive stop this
    // cycle (the line we drove equals aux_.valid, still our current state).
    const Wire& in = wires[in_];
    const Token incoming =
        in.valid && !aux_.valid ? Token::make(in.value) : Token::tau();
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

  /// Power-on state; a noise station also rewinds its Rng.
  void reset() {
    main_ = aux_ = Token::tau();
    stalling_ = false;
    tokens_forwarded_ = 0;
    rng_ = Rng(seed_);
  }

  /// Number of buffered valid items (0, 1 or 2). Exposed for tests.
  int occupancy() const { return int{main_.valid} + int{aux_.valid}; }

  std::uint64_t tokens_forwarded() const { return tokens_forwarded_; }

 private:
  WireId in_;
  WireId out_;

  Token main_ = Token::tau();  // drives the output
  Token aux_ = Token::tau();   // skid buffer used while stopped
  bool stalling_ = false;      // this cycle's injected stop (noise only)
  std::uint64_t tokens_forwarded_ = 0;

  double stall_probability_;
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace wp
