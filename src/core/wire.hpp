// A point-to-point wire segment between two clocked nodes.
//
// Per cycle it carries one forward token (value + valid bit) and one
// backward stop bit. Both are driven during the eval phase from
// *registered* state (all nodes are Moore machines), so there are no
// combinational cycles and evaluation order is irrelevant. A valid token is
// transferred in a cycle iff the consumer's stop line is low in that same
// cycle; otherwise the producer is responsible for holding (re-driving) it.
//
// Wires are plain records in one flat array owned by the Network and are
// named by a WireId, their index there. Shells and relay stations hold ids,
// never addresses; the value of an invalid token carries no information.
#pragma once

#include <cstdint>

#include "core/token.hpp"

namespace wp {

/// Index of a wire in its Network's wire array.
using WireId = std::uint32_t;

struct Wire {
  Word value = kPoisonWord;
  bool valid = false;
  bool stop = false;
};

}  // namespace wp
