// wirepipe_shard — the sharded evaluation fabric driver.
//
// Boots a WorkerFleet of wirepipe_evald daemons and proves the service's
// central claim: a sharded run is byte-identical to the single-process
// run. Two modes (default "all" runs both):
//
//   sweep     Table-1 relay-station sweep: the same EvalRequest list
//             through in-process eval::evaluate_batch and through the
//             fleet; the two CSV renderings must match byte for byte.
//   ensemble  A small multi-family ensemble via gen::ensemble_jobs; the
//             merged sharded samples CSV must match the single-process
//             CSV byte for byte (wall-clock columns zeroed on both
//             sides — timing is the one legitimately nondeterministic
//             field).
//
// Exits nonzero on any sharded-vs-single mismatch — CI runs this as the
// service's end-to-end gate. The fabric's latency is wpbench's
// fabric-floorplan workload, which also checks every fabric reply against
// the in-process reply.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/arg_parser.hpp"
#include "eval/evaluate.hpp"
#include "eval/request.hpp"
#include "gen/ensemble.hpp"
#include "proc/experiment.hpp"
#include "sim/oracle.hpp"
#include "svc/eval_client.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace wp;

std::string dir_of(const char* argv0) {
  const std::string path(argv0);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

// ------------------------------------------------------------ sweep mode

std::vector<eval::EvalRequest> sweep_requests() {
  // A wireable program reference: the daemon regenerates the program from
  // (generator, size, seed) — no closure crosses the socket.
  const eval::ProgramRef program = eval::ProgramRef::extraction_sort(10, 7);
  proc::CpuConfig cpu;
  proc::ExperimentOptions options;
  std::vector<eval::EvalRequest> requests;
  for (const proc::RsConfig& config : proc::table1_sort_configs()) {
    eval::ExperimentJob job;
    job.program = program;
    job.cpu = cpu;
    job.rs = config;
    job.options = options;
    requests.emplace_back(std::move(job));
  }
  return requests;
}

std::string sweep_csv(const std::vector<eval::EvalReply>& replies) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"label", "golden_cycles", "wp1_cycles", "wp2_cycles", "th_wp1",
           "th_wp2", "improvement", "static_wp1", "checks"});
  for (const eval::EvalReply& reply : replies) {
    const proc::ExperimentRow& row = eval::unwrap_row(reply);
    csv.row({row.label, std::to_string(row.golden_cycles),
             std::to_string(row.wp1_cycles), std::to_string(row.wp2_cycles),
             fmt_fixed(row.th_wp1, 6), fmt_fixed(row.th_wp2, 6),
             fmt_fixed(row.improvement, 6), fmt_fixed(row.static_wp1, 6),
             (row.wp1_equivalent && row.wp2_equivalent && row.result_ok)
                 ? "ok"
                 : row.detail});
  }
  return os.str();
}

// --------------------------------------------------------- ensemble mode

gen::EnsembleConfig ensemble_config(int samples) {
  gen::EnsembleConfig config;
  config.samples_per_family = samples;
  config.seed = 11;
  config.anneal.iterations = 400;
  config.simulate.enabled = true;
  config.simulate.golden_cycles = 64;
  config.simulate.wp_cycles = 256;

  gen::FamilySpec mesh;
  mesh.name = "mesh-9";
  mesh.topology.family = gen::TopologyFamily::kMesh;
  mesh.topology.num_nodes = 9;
  config.families.push_back(mesh);

  gen::FamilySpec ba;
  ba.name = "ba-12";
  ba.topology.family = gen::TopologyFamily::kBarabasiAlbert;
  ba.topology.num_nodes = 12;
  config.families.push_back(ba);
  return config;
}

gen::EnsembleReport report_from_replies(
    const gen::EnsembleConfig& config,
    const std::vector<eval::EvalReply>& replies) {
  gen::EnsembleReport report;
  report.samples.reserve(replies.size());
  for (const eval::EvalReply& reply : replies)
    report.samples.push_back(eval::unwrap_sample(reply));
  // Wall-clock columns are the one legitimately machine-dependent field;
  // zero them on BOTH sides so the byte comparison tests determinism of
  // results, not of timers.
  for (gen::SampleResult& sample : report.samples) {
    sample.anneal_ms = 0.0;
    sample.throughput_ms = 0.0;
  }
  report.families = gen::aggregate_families(config, report.samples);
  return report;
}

std::string report_csv(const gen::EnsembleReport& report) {
  std::ostringstream os;
  gen::write_samples_csv(report, os);
  gen::write_families_csv(report, os);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser parser(
      "wirepipe_shard",
      "Sharded evaluation fabric driver: proves sharded == single-process "
      "byte for byte.");
  parser.positional("mode", "all", "all | sweep | ensemble");
  parser.option("--workers", "N", "4", "worker daemons to fork");
  parser.option("--evald", "PATH", "",
                "wirepipe_evald binary (default: next to this binary)");
  parser.option("--samples", "N", "4", "ensemble samples per family");
  parser.option("--base-port", "N", "16", "first worker port");
  parser.option("--out-prefix", "P", "wirepipe_shard",
                "CSV artifact prefix");
  parser.flag("--stats",
              "scrape each worker's live stats (kStatsRequest) before "
              "shutdown and print the JSON documents");
  parser.parse_or_exit(argc, argv);

  const std::string mode = parser.positional_value();
  if (mode != "all" && mode != "sweep" && mode != "ensemble") {
    std::cerr << "unknown mode '" << mode
              << "' — expected all, sweep or ensemble\n";
    return 2;
  }
  const bool do_sweep = mode == "all" || mode == "sweep";
  const bool do_ensemble = mode == "all" || mode == "ensemble";
  const std::string prefix = parser.get("--out-prefix");

  svc::FleetOptions fleet_options;
  fleet_options.workers =
      static_cast<std::size_t>(parser.get_int("--workers"));
  fleet_options.base_port =
      static_cast<svc::port_name>(parser.get_int("--base-port"));
  fleet_options.evald_path = parser.get("--evald");
  if (fleet_options.evald_path.empty())
    fleet_options.evald_path = dir_of(argv[0]) + "/wirepipe_evald";
  fleet_options.extra_args = {"--quiet"};

  svc::WorkerFleet fleet(fleet_options);
  try {
    fleet.start();
  } catch (const std::exception& e) {
    std::cerr << "could not start the worker fleet: " << e.what() << "\n";
    return 1;
  }
  std::cout << "worker fleet: " << fleet.workers() << " x "
            << fleet_options.evald_path << "\n";

  bool ok = true;

  if (do_sweep) {
    const std::vector<eval::EvalRequest> requests = sweep_requests();
    const std::string single = sweep_csv(eval::evaluate_batch(requests, {}));
    const std::string sharded = sweep_csv(fleet.evaluate_sharded(requests));
    const bool match = single == sharded;
    ok = ok && match;
    std::ofstream(prefix + "_sweep_single.csv") << single;
    std::ofstream(prefix + "_sweep_sharded.csv") << sharded;
    std::cout << "sweep: " << requests.size() << " experiment rows, "
              << (match ? "sharded == single (byte-identical CSV)"
                        : "MISMATCH between sharded and single CSV")
              << "\n";
  }

  if (do_ensemble) {
    const gen::EnsembleConfig config =
        ensemble_config(parser.get_int("--samples"));
    const std::vector<gen::SampleJob> jobs = gen::ensemble_jobs(config);
    std::vector<eval::EvalRequest> requests;
    requests.reserve(jobs.size());
    for (const gen::SampleJob& job : jobs) requests.emplace_back(job);

    // Single-process side: a private oracle, exactly how run_ensemble
    // wires one per run.
    sim::SimOracle oracle;
    eval::EvalContext context;
    context.oracle = &oracle;
    const std::string single = report_csv(
        report_from_replies(config, eval::evaluate_batch(requests, context)));
    const std::string sharded = report_csv(
        report_from_replies(config, fleet.evaluate_sharded(requests)));
    const bool match = single == sharded;
    ok = ok && match;
    std::ofstream(prefix + "_ensemble_single.csv") << single;
    std::ofstream(prefix + "_ensemble_sharded.csv") << sharded;
    std::cout << "ensemble: " << jobs.size() << " samples across "
              << config.families.size() << " families, "
              << (match ? "sharded == single (byte-identical CSV)"
                        : "MISMATCH between sharded and single CSV")
              << "\n";
  }

  if (parser.has("--stats")) {
    // Live scrape over the same sockets the work went through — the
    // daemons are still up, so the counters reflect this run.
    for (std::size_t w = 0; w < fleet.workers(); ++w) {
      try {
        std::cout << "worker " << w << " stats: "
                  << fleet.client(w).stats_json();
      } catch (const std::exception& e) {
        std::cerr << "worker " << w << " stats scrape failed: " << e.what()
                  << "\n";
        ok = false;
      }
    }
  }

  fleet.stop();

  if (!ok) {
    std::cerr << "wirepipe_shard: sharded results diverged from "
                 "single-process results\n";
    return 1;
  }
  return 0;
}
