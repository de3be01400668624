#include "testkit/rng.hpp"

#include <cstring>
#include <type_traits>

#include "util/assert.hpp"

namespace wp::testkit {

std::int64_t range(Rng& rng, std::int64_t lo, std::int64_t hi) {
  WP_REQUIRE(lo <= hi, "range requires lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(rng());  // full range
  return lo + static_cast<std::int64_t>(rng.below(span));
}

Rng split(Rng& rng) {
  // Rng is exactly its four xoshiro state words, so the draws can be
  // copied in as the child's state.
  static_assert(std::is_trivially_copyable_v<Rng> &&
                sizeof(Rng) == 4 * sizeof(std::uint64_t));
  std::uint64_t state[4];
  for (auto& word : state) word = rng();
  Rng child;
  std::memcpy(static_cast<void*>(&child), state, sizeof state);
  return child;
}

}  // namespace wp::testkit
