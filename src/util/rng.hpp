// Deterministic pseudo-random number generation (xoshiro256**).
//
// Simulations, annealing and property tests all need reproducible streams
// that are independent of the standard library implementation, so we ship a
// small self-contained generator instead of std::mt19937.
#pragma once

#include <cstdint>
#include <vector>

namespace wp {

/// xoshiro256** by Blackman & Vigna.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  result_type operator()();

  /// Uniform integer in [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Fisher–Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace wp
