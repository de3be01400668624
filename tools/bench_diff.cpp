// bench_diff — the perf flight recorder's CI gate.
//
//   bench_diff --baseline bench/snapshots/BENCH_floorplan.json
//              --fresh build/BENCH_floorplan.json
//              [--threshold 0.25] [--min-ms 1.0] [--report diff.json]
//
// Compares a fresh bench run against the committed snapshot and exits
// nonzero when any hot-path metric regressed by more than the threshold
// (see src/obs/bench_diff.hpp for the metric classification rules). The
// human-readable verdict goes to stdout; --report writes the full machine
// diff for the CI artifact.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli/arg_parser.hpp"
#include "obs/bench_diff.hpp"
#include "util/json.hpp"

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

const char* verdict(const wp::obs::MetricDelta& delta) {
  if (delta.regression) return "REGRESSED";
  if (delta.skipped_small) return "skipped (noise floor)";
  if (delta.direction == wp::obs::MetricDirection::kInformational)
    return "info";
  return delta.change < 0.0 ? "improved" : "ok";
}

/// The metric's own relative change, (fresh − baseline)/|baseline|.
/// MetricDelta::change is sign-normalized (positive = worse), which would
/// print a doubled speedup as −100%.
double own_change(const wp::obs::MetricDelta& delta) {
  return delta.direction == wp::obs::MetricDirection::kHigherIsBetter
             ? -delta.change
             : delta.change;
}

}  // namespace

int main(int argc, char** argv) {
  wp::cli::ArgParser args(
      "bench_diff",
      "Compare a fresh bench JSON against a committed snapshot and fail on "
      "hot-path regressions.");
  args.option("--baseline", "path", "", "committed snapshot JSON");
  args.option("--fresh", "path", "", "freshly generated bench JSON");
  args.option("--threshold", "fraction", "0.25",
              "relative slowdown that fails the gate");
  args.option("--min-ms", "ms", "1.0",
              "noise floor: wall-clock metrics under this are not gated");
  args.option("--report", "path", "", "write the full JSON diff report here");
  args.flag("--quiet", "print only regressions and the final verdict");
  args.parse_or_exit(argc, argv);

  const std::string baseline_path = args.get("--baseline");
  const std::string fresh_path = args.get("--fresh");
  if (baseline_path.empty() || fresh_path.empty()) {
    std::cerr << "bench_diff: --baseline and --fresh are required\n"
              << args.usage();
    return 2;
  }

  std::string baseline_text, fresh_text;
  if (!read_file(baseline_path, baseline_text)) {
    std::cerr << "bench_diff: cannot read " << baseline_path << "\n";
    return 2;
  }
  if (!read_file(fresh_path, fresh_text)) {
    std::cerr << "bench_diff: cannot read " << fresh_path << "\n";
    return 2;
  }

  wp::obs::BenchDiffOptions options;
  options.threshold = args.get_double("--threshold");
  options.min_ms = args.get_double("--min-ms");

  wp::obs::BenchDiffReport report;
  try {
    const wp::json::Value baseline = wp::json::Value::parse(baseline_text);
    const wp::json::Value fresh = wp::json::Value::parse(fresh_text);
    report = wp::obs::diff_benchmarks(baseline, fresh, options);
  } catch (const wp::json::ParseError& error) {
    std::cerr << "bench_diff: JSON parse error: " << error.what() << "\n";
    return 2;
  }

  const bool quiet = args.has("--quiet");
  for (const wp::obs::MetricDelta& delta : report.deltas) {
    if (quiet && !delta.regression) continue;
    std::printf("%-12s %-48s %12.4f -> %12.4f  (%+.1f%%)\n", verdict(delta),
                delta.path.c_str(), delta.baseline, delta.fresh,
                own_change(delta) * 100.0);
  }
  for (const std::string& path : report.missing_in_fresh)
    std::printf("MISSING      %-48s (in baseline, absent from fresh run)\n",
                path.c_str());
  for (const std::string& path : report.missing_in_baseline)
    std::printf("new          %-48s (absent from baseline)\n", path.c_str());

  const std::string report_path = args.get("--report");
  if (!report_path.empty()) {
    std::ofstream file(report_path);
    if (!file) {
      std::cerr << "bench_diff: cannot write " << report_path << "\n";
      return 2;
    }
    wp::json::JsonWriter json(file);
    wp::obs::write_diff_report(report, options, json);
    file << "\n";
  }

  if (!report.pass()) {
    std::printf("FAIL: %zu regression(s) beyond %.0f%%, %zu missing metric(s)\n",
                report.regressions(), options.threshold * 100.0,
                report.missing_in_fresh.size());
    return 1;
  }
  std::printf("PASS: %zu metric(s) compared, no regression beyond %.0f%%\n",
              report.deltas.size(), options.threshold * 100.0);
  return 0;
}
