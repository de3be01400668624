// Draw helpers the suites use on top of wp::Rng. Production code only ever
// needs Rng's own draws (operator(), below, uniform, chance, shuffle), so
// these live with the tests.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace wp::testkit {

/// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
std::int64_t range(Rng& rng, std::int64_t lo, std::int64_t hi);

/// A fork of `rng` with a decorrelated state: the child's four state words
/// are the parent's next four draws.
Rng split(Rng& rng);

}  // namespace wp::testkit
