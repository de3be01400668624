// The perf flight recorder's comparator: committed BENCH_*.json snapshot
// vs a fresh run, with a verdict per metric.
//
// One rule: a numeric leaf gates if and only if its key ends in
// "_speedup". Every such key is a same-process ratio of a code path
// against the in-tree reference it must beat (naive pack(), a fresh
// Howard solve), so it carries from one machine to another. It regresses
// when baseline / fresh − 1 exceeds kRegressionThreshold: a path that got
// 30% slower reads as a 30% regression. Every other leaf (milliseconds,
// counts, areas, shares) is reported and never gates; end-to-end
// milliseconds belong to wpbench, which times alternating pairs on one
// host.
//
// A leaf of the baseline that is missing from the fresh run fails the
// gate, so a vanished ratio cannot pass unnoticed.
//
// Used by tools/bench_diff (the CI gate) and unit-tested in
// tests/test_obs.cpp.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace wp::obs {

/// Relative slowdown of a `*_speedup` ratio that fails the gate.
inline constexpr double kRegressionThreshold = 0.25;

/// True for the keys the gate compares: those ending in "_speedup".
bool is_gated(const std::string& key);

struct MetricDelta {
  std::string path;  ///< e.g. "throughput_oracle[1].throughput_eval_speedup"
  double baseline = 0.0;
  double fresh = 0.0;
  /// The metric's own relative change, (fresh − baseline)/|baseline|;
  /// 0 when baseline is 0.
  double change = 0.0;
  bool gated = false;
  /// Gated and baseline / fresh − 1 > kRegressionThreshold.
  bool regression = false;
};

struct BenchDiffReport {
  std::vector<MetricDelta> deltas;  ///< every shared numeric leaf
  /// Numeric leaves present in one document only (schema drift — reported
  /// loudly so a silently vanished metric cannot pass the gate unnoticed).
  std::vector<std::string> missing_in_fresh;
  std::vector<std::string> missing_in_baseline;

  std::size_t regressions() const;
  /// The gate: no regressions AND nothing expected went missing.
  bool pass() const { return regressions() == 0 && missing_in_fresh.empty(); }
};

BenchDiffReport diff_benchmarks(const json::Value& baseline,
                                const json::Value& fresh);

/// Streams the report as one JSON object (the CI diff artifact).
void write_diff_report(const BenchDiffReport& report, json::JsonWriter& json);

}  // namespace wp::obs
