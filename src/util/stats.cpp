#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace wp {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double RunningStats::mean() const {
  WP_REQUIRE(n_ > 0, "mean of empty stats");
  return mean_;
}

double RunningStats::min() const {
  WP_REQUIRE(n_ > 0, "min of empty stats");
  return min_;
}

double RunningStats::max() const {
  WP_REQUIRE(n_ > 0, "max of empty stats");
  return max_;
}

double percentile(std::vector<double> data, double p) {
  WP_REQUIRE(!data.empty(), "percentile of empty data");
  WP_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p out of [0,100]");
  std::sort(data.begin(), data.end());
  if (p == 0.0) return data.front();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(data.size())));
  return data[std::min(rank, data.size()) - 1];
}

}  // namespace wp
