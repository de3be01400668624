// Floorplan instances: a GSRC/MCNC-style text parser plus embedded
// benchmark-flavoured instances (the public suites are not redistributable
// verbatim here, so deterministic look-alikes with the same block-count
// scale are generated — n10- and ami33-class — alongside the exact
// five-block instance of the paper's case study).
#pragma once

#include <string>

#include "floorplan/model.hpp"
#include "util/rng.hpp"

namespace wp::fplan {

/// Parses the simple exchange format:
///   block <name> <width> <height>
///   net   <connection> <src_block> <dst_block>
/// '#' starts a comment. Throws on malformed input.
Instance parse_instance(const std::string& text);

/// The paper's five-block processor with physical extents chosen so the
/// longest connections need pipelining at the default delay model: block
/// sizes in mm.
Instance cpu_instance();

/// GSRC n10-class instance: `num_blocks` soft-ish rectangles with a ring +
/// random extra connections (deterministic in `seed`).
Instance synthetic_instance(std::size_t num_blocks, std::uint64_t seed,
                            double min_mm = 0.5, double max_mm = 3.0,
                            double extra_net_probability = 0.15);

}  // namespace wp::fplan
