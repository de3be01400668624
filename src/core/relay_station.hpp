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
// Like a shell, a station is a Moore machine stepped by Network::step:
// eval() drives both wires from registered state, commit() samples them.
#pragma once

#include "core/wire.hpp"
#include "util/rng.hpp"

namespace wp {

class RelayStation {
 public:
  /// in: wire from the upstream element; out: wire to the downstream one.
  /// A positive `stall_probability` makes a noise station seeded by `seed`.
  RelayStation(Wire* in, Wire* out, double stall_probability = 0.0,
               std::uint64_t seed = 0);

  /// Phase 1: drive the output token and the input stop line.
  void eval();
  /// Phase 2: sample both wires and update the two registers.
  void commit();
  /// Power-on state; a noise station also rewinds its Rng.
  void reset();

  /// Number of buffered valid items (0, 1 or 2). Exposed for tests.
  int occupancy() const;

  std::uint64_t tokens_forwarded() const { return tokens_forwarded_; }

 private:
  Wire* in_;
  Wire* out_;

  Token main_ = Token::tau();  // drives the output
  Token aux_ = Token::tau();   // skid buffer used while stopped
  bool stalling_ = false;      // this cycle's injected stop (noise only)
  std::uint64_t tokens_forwarded_ = 0;

  double stall_probability_;
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace wp
