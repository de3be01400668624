// Streaming summary statistics and the percentile helper.
#pragma once

#include <cstddef>
#include <vector>

namespace wp {

/// Single-pass count/mean/min/max/sum accumulator (running mean update).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile of a copy of the data (nearest-rank). p in [0,100].
double percentile(std::vector<double> data, double p);

}  // namespace wp
