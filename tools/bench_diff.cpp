// bench_diff — the perf flight recorder's CI gate.
//
//   bench_diff --baseline bench/snapshots/BENCH_floorplan.json
//              --fresh build/BENCH_floorplan.json
//              [--report diff.json]
//
// Compares a fresh bench run against the committed snapshot and exits
// nonzero when a same-process `*_speedup` ratio lost more than 25% or a
// snapshot metric went missing (see src/obs/bench_diff.hpp). Every other
// number is printed as "info" and never gates. The human-readable verdict
// goes to stdout; --report writes the full machine diff for the CI
// artifact.
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
  if (!delta.gated) return "info";
  return delta.change > 0.0 ? "improved" : "ok";
}

}  // namespace

int main(int argc, char** argv) {
  wp::cli::ArgParser args(
      "bench_diff",
      "Compare a fresh bench JSON against a committed snapshot and fail when "
      "a *_speedup ratio regressed.");
  args.option("--baseline", "path", "", "committed snapshot JSON");
  args.option("--fresh", "path", "", "freshly generated bench JSON");
  args.option("--report", "path", "", "write the full JSON diff report here");
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

  wp::obs::BenchDiffReport report;
  try {
    const wp::json::Value baseline = wp::json::Value::parse(baseline_text);
    const wp::json::Value fresh = wp::json::Value::parse(fresh_text);
    report = wp::obs::diff_benchmarks(baseline, fresh);
  } catch (const wp::json::ParseError& error) {
    std::cerr << "bench_diff: JSON parse error: " << error.what() << "\n";
    return 2;
  }

  // A gated ratio prints the gate's own measure, baseline / fresh − 1: how
  // much slower the path got against its reference. Others print their
  // relative change.
  for (const wp::obs::MetricDelta& delta : report.deltas) {
    if (delta.gated)
      std::printf("%-12s %-48s %12.4f -> %12.4f  (path time %+.1f%%)\n",
                  verdict(delta), delta.path.c_str(), delta.baseline,
                  delta.fresh, (delta.baseline / delta.fresh - 1.0) * 100.0);
    else
      std::printf("%-12s %-48s %12.4f -> %12.4f  (%+.1f%%)\n",
                  verdict(delta), delta.path.c_str(), delta.baseline,
                  delta.fresh, delta.change * 100.0);
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
    wp::obs::write_diff_report(report, json);
    file << "\n";
  }

  if (!report.pass()) {
    std::printf("FAIL: %zu regression(s) beyond %.0f%%, %zu missing metric(s)\n",
                report.regressions(), wp::obs::kRegressionThreshold * 100.0,
                report.missing_in_fresh.size());
    return 1;
  }
  std::printf("PASS: %zu metric(s) compared, no regression beyond %.0f%%\n",
              report.deltas.size(), wp::obs::kRegressionThreshold * 100.0);
  return 0;
}
