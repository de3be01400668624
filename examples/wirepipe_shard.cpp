// wirepipe_shard — the sharded evaluation fabric driver.
//
// Boots a WorkerFleet of wirepipe_evald daemons and proves the service's
// central claim: a sharded run is byte-identical to the single-process
// run. Three modes (default "all"):
//
//   sweep     Table-1 relay-station sweep: the same EvalRequest list
//             through in-process eval::evaluate_batch and through the
//             fleet; the two CSV renderings must match byte for byte.
//   ensemble  A small multi-family ensemble via gen::ensemble_jobs; the
//             merged sharded samples CSV must match the single-process
//             CSV byte for byte (wall-clock columns zeroed on both
//             sides — timing is the one legitimately nondeterministic
//             field).
//   bench     Throughput demo: a stream of small floorplan-anneal
//             requests through the fleet, reporting evals/min and the
//             p99 batch round-trip latency to BENCH_service.json.
//
// Exits nonzero on any sharded-vs-single mismatch — CI runs this as the
// service's end-to-end gate.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
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

// The JSON artifact writer shared with the benches.
#include "../bench/bench_common.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace wp;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

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

// ------------------------------------------------------------ bench mode

std::vector<eval::EvalRequest> bench_requests(int count) {
  // The cheapest meaningful evaluation: a tiny mesh annealed for a
  // handful of iterations, distinct seed per request (so nothing is
  // amortizable across requests — this measures the service, not a cache).
  std::vector<eval::EvalRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    eval::FloorplanJob job;
    job.topology.family = gen::TopologyFamily::kMesh;
    job.topology.num_nodes = 9;
    job.seed = 1000 + static_cast<std::uint64_t>(i);
    job.anneal.iterations = 12;
    job.anneal.weight_throughput = 10.0;
    requests.emplace_back(std::move(job));
  }
  return requests;
}

double percentile_ms(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(p / 100.0 *
                               static_cast<double>(values.size())));
  return values[index];
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser parser(
      "wirepipe_shard",
      "Sharded evaluation fabric driver: proves sharded == single-process "
      "byte for byte and benchmarks the service.");
  parser.positional("mode", "all", "all | sweep | ensemble | bench");
  parser.option("--workers", "N", "4", "worker daemons to fork");
  parser.option("--evald", "PATH", "",
                "wirepipe_evald binary (default: next to this binary)");
  parser.option("--json", "PATH", "BENCH_service.json",
                "service bench artifact");
  parser.option("--samples", "N", "4", "ensemble samples per family");
  parser.option("--evals", "N", "1200", "bench-mode request count");
  parser.option("--base-port", "N", "16", "first worker port");
  parser.option("--out-prefix", "P", "wirepipe_shard",
                "CSV artifact prefix");
  parser.flag("--stats",
              "scrape each worker's live stats (kStatsRequest) before "
              "shutdown and print the JSON documents");
  parser.parse_or_exit(argc, argv);

  const std::string mode = parser.positional_value();
  if (mode != "all" && mode != "sweep" && mode != "ensemble" &&
      mode != "bench") {
    std::cerr << "unknown mode '" << mode
              << "' — expected all, sweep, ensemble or bench\n";
    return 2;
  }
  const bool do_sweep = mode == "all" || mode == "sweep";
  const bool do_ensemble = mode == "all" || mode == "ensemble";
  const bool do_bench = mode == "all" || mode == "bench";
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
  double sweep_ms = 0.0, ensemble_ms = 0.0;
  double evals_per_min = 0.0, p99_ms = 0.0, mean_ms = 0.0;
  double inproc_evals_per_min = 0.0;
  int bench_evals = 0;

  if (do_sweep) {
    const std::vector<eval::EvalRequest> requests = sweep_requests();
    const auto start = Clock::now();
    const std::string single = sweep_csv(eval::evaluate_batch(requests, {}));
    const std::string sharded = sweep_csv(fleet.evaluate_sharded(requests));
    sweep_ms = ms_since(start);
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

    const auto start = Clock::now();
    // Single-process side: a private oracle, exactly how run_ensemble
    // wires one per run.
    sim::SimOracle oracle;
    eval::EvalContext context;
    context.oracle = &oracle;
    const std::string single = report_csv(
        report_from_replies(config, eval::evaluate_batch(requests, context)));
    const std::string sharded = report_csv(
        report_from_replies(config, fleet.evaluate_sharded(requests)));
    ensemble_ms = ms_since(start);
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

  if (do_bench) {
    bench_evals = parser.get_int("--evals");
    const std::vector<eval::EvalRequest> requests =
        bench_requests(bench_evals);

    // In-process baseline for the artifact (and a full equality check —
    // the bench replies must match in-process replies value for value).
    const auto inproc_start = Clock::now();
    const std::vector<eval::EvalReply> inproc =
        eval::evaluate_batch(requests, {});
    const double inproc_ms = ms_since(inproc_start);
    inproc_evals_per_min =
        static_cast<double>(requests.size()) / inproc_ms * 60000.0;

    // Fleet side: each worker is driven from its own thread with
    // fixed-size batches; batch round trips land in per-thread latency
    // logs for the p99.
    const std::size_t n = fleet.workers();
    constexpr std::size_t kBatch = 32;
    std::vector<std::vector<eval::EvalRequest>> shards(n);
    for (std::size_t i = 0; i < requests.size(); ++i)
      shards[i % n].push_back(requests[i]);
    std::vector<std::vector<eval::EvalReply>> shard_replies(n);
    std::vector<std::vector<double>> latencies(n);

    const auto start = Clock::now();
    std::vector<std::thread> drivers;
    for (std::size_t w = 0; w < n; ++w) {
      drivers.emplace_back([&, w] {
        for (std::size_t b = 0; b < shards[w].size(); b += kBatch) {
          const std::size_t end = std::min(b + kBatch, shards[w].size());
          const std::vector<eval::EvalRequest> batch(
              shards[w].begin() + static_cast<std::ptrdiff_t>(b),
              shards[w].begin() + static_cast<std::ptrdiff_t>(end));
          const auto sent = Clock::now();
          std::vector<eval::EvalReply> replies =
              fleet.client(w).evaluate(batch);
          latencies[w].push_back(ms_since(sent));
          for (eval::EvalReply& reply : replies)
            shard_replies[w].push_back(std::move(reply));
        }
      });
    }
    for (std::thread& t : drivers) t.join();
    const double elapsed_ms = ms_since(start);

    // Merge and compare against the in-process baseline.
    bool match = true;
    std::vector<std::size_t> cursor(n, 0);
    std::vector<double> all_latencies;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const eval::EvalReply& reply = shard_replies[i % n][cursor[i % n]++];
      match = match && reply.ok() && inproc[i].ok() &&
              reply.floorplan == inproc[i].floorplan;
    }
    for (const std::vector<double>& lane : latencies)
      all_latencies.insert(all_latencies.end(), lane.begin(), lane.end());
    ok = ok && match;

    evals_per_min =
        static_cast<double>(requests.size()) / elapsed_ms * 60000.0;
    p99_ms = percentile_ms(all_latencies, 99.0);
    double total = 0.0;
    for (const double v : all_latencies) total += v;
    mean_ms = all_latencies.empty()
                  ? 0.0
                  : total / static_cast<double>(all_latencies.size());
    std::cout << "bench: " << requests.size() << " floorplan evals in "
              << fmt_fixed(elapsed_ms, 0) << " ms across " << n
              << " workers = " << fmt_fixed(evals_per_min, 0)
              << " evals/min (in-process baseline "
              << fmt_fixed(inproc_evals_per_min, 0) << "), batch p99 "
              << fmt_fixed(p99_ms, 2) << " ms, "
              << (match ? "replies match in-process"
                        : "MISMATCH vs in-process replies")
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

  const std::string json_path = parser.get("--json");
  std::ofstream json_file(json_path);
  bench::JsonWriter json(json_file);
  json.begin_object();
  json.field("bench", "service");
  json.field("mode", mode);
  json.field("workers", static_cast<int>(fleet_options.workers));
  json.field("ok", ok);
  json.key("sweep").begin_object();
  json.field("ran", do_sweep);
  json.field("total_ms", sweep_ms);
  json.end_object();
  json.key("ensemble").begin_object();
  json.field("ran", do_ensemble);
  json.field("total_ms", ensemble_ms);
  json.end_object();
  json.key("service").begin_object();
  json.field("ran", do_bench);
  json.field("evals", bench_evals);
  json.field("evals_per_min", evals_per_min);
  json.field("inprocess_evals_per_min", inproc_evals_per_min);
  json.field("reply_p99_ms", p99_ms);
  json.field("reply_mean_ms", mean_ms);
  json.end_object();
  json.end_object();
  json_file << "\n";
  std::cout << "wrote " << json_path << "\n";

  if (!ok) {
    std::cerr << "wirepipe_shard: sharded results diverged from "
                 "single-process results\n";
    return 1;
  }
  return 0;
}
