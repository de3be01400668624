// The floorplan exchange format written back out, so the suites can
// round-trip fplan::parse_instance().
#pragma once

#include <string>

#include "floorplan/model.hpp"

namespace wp::testkit {

/// Serializes to the exchange format fplan::parse_instance() reads.
std::string serialize_instance(const fplan::Instance& inst);

}  // namespace wp::testkit
