// Random-program generation for the case-study processor: terminating
// programs (forward branches and bounded counted loops only) over the full
// ISA, used by the property tests to check golden/WP1/WP2 agreement far
// beyond the two paper workloads.
#pragma once

#include <cstdint>

#include "proc/programs.hpp"

namespace wp::testkit {

struct RandomProgramConfig {
  std::uint64_t seed = 1;
  int blocks = 6;             ///< straight-line blocks
  int min_block_ops = 3;
  int max_block_ops = 8;
  int loop_trip_max = 4;      ///< counted-loop trip counts in [1, max]
  double loop_probability = 0.4;
  double branch_probability = 0.5;  ///< forward conditional branch per block
  std::size_t ram_words = 32;
};

/// Generates a random terminating program. The returned spec's verify()
/// accepts anything — the property tests compare the final memory of the
/// WP runs against the golden run directly (plus trace equivalence).
proc::ProgramSpec random_program(const RandomProgramConfig& config);

}  // namespace wp::testkit
