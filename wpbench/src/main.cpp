// wpbench — the wirepipe benchmark driver.
//
//   wpbench --workload anneal-area-1024 --seed 7 --seconds 10 --trace 0
//           [--smoke] [--out DIR] [--evald PATH]
//
// Runs one workload for --seconds, checks every output, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones (and
// writes the span file and the per-layer table into --out). The exit code
// is 0 only when every check passed. The metric names and units come
// from BENCHMARK.json in the working directory, the repository root.
// wpbench/run.py builds this binary and the daemon, then calls it.
#include <sys/stat.h>

#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "wpbench: " << error << "\n"
            << "usage: wpbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out DIR] [--evald PATH]\n"
            << "workloads: anneal-area-1024 anneal-throughput-128 "
               "fabric-floorplan stream-wp2\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wpbench;
  const std::map<std::string, std::function<Report(const Options&)>>
      workloads = {
          {"anneal-area-1024", run_anneal_area},
          {"anneal-throughput-128", run_anneal_throughput},
          {"fabric-floorplan", run_fabric},
          {"stream-wp2", run_stream},
      };

  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        options.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--out") {
        options.out_dir = value;
      } else if (arg == "--evald") {
        options.evald_path = value;
      } else {
        return usage("unknown option " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end())
    return usage("unknown workload '" + options.workload + "'");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  std::vector<MetricSpec> specs;
  try {
    specs = load_metric_specs("BENCHMARK.json",
                              options.trace ? "per_layer" : "end_to_end");
  } catch (const std::exception& e) {
    std::cerr << "wpbench: " << e.what() << "\n";
    return 2;
  }

  ::mkdir(options.out_dir.c_str(), 0755);
  // Worker sockets live under the output directory (a relative path keeps
  // them inside the checkout and under the AF_UNIX path limit).
  const std::string socket_dir = options.out_dir + "/sock";
  ::mkdir(socket_dir.c_str(), 0755);
  ::setenv("WIREPIPE_SOCKET_DIR", socket_dir.c_str(), 1);

  Report report;
  try {
    report = workload->second(options);
  } catch (const std::exception& e) {
    std::cerr << "wpbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  print_report(options, specs, report);
  return report.correct() ? 0 : 1;
}
