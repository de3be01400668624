#include "util/rng.hpp"

#include "util/assert.hpp"

namespace wp {

namespace {
// splitmix64, used to expand the seed into the full xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  WP_REQUIRE(bound > 0, "Rng::below bound must be positive");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform() {
  // 53 top bits → double in [0,1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

}  // namespace wp
