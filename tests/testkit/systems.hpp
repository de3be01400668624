// Helpers of the LID kernel suites: the connection names of a system spec
// and a token driven onto a wire by hand between network steps.
#pragma once

#include <string>
#include <vector>

#include "core/system.hpp"
#include "core/token.hpp"
#include "core/wire.hpp"

namespace wp::testkit {

/// Sorted list of the spec's distinct connection names.
std::vector<std::string> connections(const SystemSpec& spec);

/// Producer side of a wire: drives a token (τ or valid) forward.
inline void drive(Wire& wire, const Token& token) {
  wire.value = token.value;
  wire.valid = token.valid;
}

}  // namespace wp::testkit
