// Topology-ensemble bench: five synthetic SoC families x N seeded samples
// each, every sample driven through the full methodology pipeline
// (generate -> dress -> throughput-aware annealed floorplan -> placement
// RS demand -> min-cycle-ratio throughput -> golden/WP1/WP2 simulation of
// the generated netlist via the simulation oracle). The same ensemble runs
// sequentially and on the thread pool; any bitwise divergence is a
// determinism bug and fails the run.
//
// The default family set includes the 128-node scale-free family the fast
// packing engine unlocked, riding on FamilySpec::anneal_iterations (a
// smaller per-family budget than the 24-node families).
//
// CSV: writes <prefix>_samples.csv and <prefix>_families.csv (prefix from
// the first non-flag argument, default "bench_ensembles") for the
// per-commit CI artifact; the samples CSV carries th_wp1_sim/th_wp2_sim/
// sim_ok next to the static bound.
//
// Flags (wp::cli::ArgParser; --help prints the full usage):
//   --samples N        samples per family (default 12)
//   --families a,b,c   keep only the named families (default: all five)
//   --no-sim           skip the golden/WP1/WP2 simulation triple
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "cli/arg_parser.hpp"
#include "gen/ensemble.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

wp::gen::EnsembleConfig make_config() {
  using wp::gen::FamilySpec;
  using wp::gen::TopologyFamily;
  wp::gen::EnsembleConfig config;
  config.seed = 2005;
  config.samples_per_family = 12;
  config.anneal.iterations = 1500;
  config.simulate.enabled = true;

  FamilySpec ba;
  ba.name = "ba-24";
  ba.topology.family = TopologyFamily::kBarabasiAlbert;
  ba.topology.num_nodes = 24;
  ba.topology.ba_attach = 2;
  config.families.push_back(ba);

  FamilySpec ws;
  ws.name = "ws-24";
  ws.topology.family = TopologyFamily::kWattsStrogatz;
  ws.topology.num_nodes = 24;
  ws.topology.ws_neighbors = 4;
  ws.topology.ws_rewire_probability = 0.15;
  config.families.push_back(ws);

  FamilySpec torus;
  torus.name = "torus-5x5";
  torus.topology.family = TopologyFamily::kMesh;
  torus.topology.num_nodes = 25;
  torus.topology.mesh_rows = 5;
  torus.topology.mesh_cols = 5;
  torus.topology.mesh_torus = true;
  config.families.push_back(torus);

  FamilySpec cer;
  cer.name = "cer-24x4";
  cer.topology.family = TopologyFamily::kClusteredErdosRenyi;
  cer.topology.num_nodes = 24;
  cer.topology.er_clusters = 4;
  cer.topology.er_intra_probability = 0.3;
  cer.topology.er_inter_probability = 0.03;
  config.families.push_back(cer);

  // The scale regime the incremental packing engine unlocked, now in the
  // default set: per-family iteration budget instead of a separate
  // --large run. Johnson cycle enumeration explodes here; the global cap
  // records cycles = -1 for these samples.
  FamilySpec large;
  large.name = "ba-128";
  large.topology.family = TopologyFamily::kBarabasiAlbert;
  large.topology.num_nodes = 128;
  large.topology.ba_attach = 2;
  large.anneal_iterations = 800;
  config.families.push_back(large);

  return config;
}

/// The 256/512/1024-node scale sweep, collected for the JSON artifact.
struct ScaleSection {
  bool ran = false;
  double pooled_ms = 0.0;  ///< wall-clock of the pooled run
  struct Row {
    std::string family;
    std::size_t samples = 0;
    double th_mean = 0, rs_mean = 0, area_mean = 0, anneal_ms_mean = 0;
  };
  std::vector<Row> rows;
};

/// Runs a slice of the scale substrate (ba-256 / mesh-16x16 / ba-1024,
/// 2 samples each, simulation and cycle enumeration off — the pipeline is
/// anneal -> placement RS demand -> min-cycle-ratio throughput) through
/// the pooled runner.
ScaleSection run_scale_section() {
  using namespace wp;
  gen::EnsembleConfig config;
  config.seed = 2005;
  config.samples_per_family = 2;
  config.simulate.enabled = false;
  config.max_cycle_enumeration = 0;  // Johnson enumeration explodes here
  for (auto& family : gen::scale_family_specs())
    if (family.name == "ba-256" || family.name == "mesh-16x16" ||
        family.name == "ba-1024")
      config.families.push_back(std::move(family));

  ScaleSection section;
  section.ran = true;

  const auto pooled_start = Clock::now();
  const gen::EnsembleReport pooled = gen::run_ensemble(config);
  section.pooled_ms = seconds_since(pooled_start) * 1000.0;

  TextTable table({"family", "samples", "Th mean", "RS mean", "area mean",
                   "anneal ms"});
  table.add_section("Scale substrate (2 samples/family, sim off)");
  table.add_separator();
  for (const auto& f : pooled.families) {
    table.add_row({f.family, std::to_string(f.samples),
                   fmt_fixed(f.th_mean, 3), fmt_fixed(f.rs_mean, 1),
                   fmt_fixed(f.area_mean, 1),
                   fmt_fixed(f.anneal_ms_mean, 1)});
    section.rows.push_back({f.family, f.samples, f.th_mean, f.rs_mean,
                            f.area_mean, f.anneal_ms_mean});
  }
  table.print(std::cout);
  std::cout << "pooled run " << fmt_fixed(section.pooled_ms / 1000.0, 2)
            << " s\n\n";
  return section;
}

/// Runs one config sequentially and pooled, prints the family table, writes
/// the CSVs and the JSON artifact, and returns whether the two runs were
/// bit-identical.
bool run_and_report(const wp::gen::EnsembleConfig& config,
                    const std::string& prefix, const std::string& json_path,
                    const ScaleSection& scale) {
  using namespace wp;
  const auto sequential_start = Clock::now();
  const gen::EnsembleReport sequential = gen::run_ensemble_sequential(config);
  const double sequential_s = seconds_since(sequential_start);

  const auto parallel_start = Clock::now();
  const gen::EnsembleReport parallel = gen::run_ensemble(config);
  const double parallel_s = seconds_since(parallel_start);

  const bool identical = sequential.samples == parallel.samples;

  TextTable table({"family", "samples", "Th mean", "Th p95", "Th min",
                   "Th wp1 sim", "Th wp2 sim", "sim fail", "RS mean",
                   "area mean", "anneal ms", "th-eval ms"});
  table.add_separator();
  for (const auto& f : parallel.families) {
    // Sim columns show "-" when the triple was not simulated (--no-sim):
    // an unmeasured value must not read as a measured zero.
    const bool sim = f.sim_samples > 0;
    table.add_row({f.family, std::to_string(f.samples),
                   fmt_fixed(f.th_mean, 3), fmt_fixed(f.th_p95, 3),
                   fmt_fixed(f.th_min, 3),
                   sim ? fmt_fixed(f.th_wp1_sim_mean, 3) : std::string("-"),
                   sim ? fmt_fixed(f.th_wp2_sim_mean, 3) : std::string("-"),
                   sim ? std::to_string(f.sim_failures) : std::string("-"),
                   fmt_fixed(f.rs_mean, 1), fmt_fixed(f.area_mean, 1),
                   fmt_fixed(f.anneal_ms_mean, 1),
                   fmt_fixed(f.throughput_ms_mean, 1)});
  }
  table.print(std::cout);

  {
    const std::uint64_t engine_queries =
        parallel.engine_incremental + parallel.engine_fallbacks;
    std::cout << "throughput engine: " << engine_queries
              << " min-cycle-ratio queries, " << parallel.engine_incremental
              << " incremental / " << parallel.engine_fallbacks
              << " cold re-solves ("
              << fmt_percent(engine_queries == 0
                                 ? 0.0
                                 : static_cast<double>(
                                       parallel.engine_incremental) /
                                       static_cast<double>(engine_queries))
              << " incremental)\n";
  }

  std::cout << "sequential " << fmt_fixed(sequential_s, 2) << " s, pooled "
            << fmt_fixed(parallel_s, 2) << " s (speedup "
            << fmt_fixed(sequential_s / parallel_s, 2)
            << "x)   sequential == pooled: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";
  if (config.simulate.enabled)
    std::cout << "simulation oracle: " << parallel.sim_golden_runs
              << " golden runs for " << parallel.samples.size()
              << " samples x 2 WP evaluations (each WP1/WP2 pair replays "
                 "one cached golden)\n";

  {
    std::ofstream samples(prefix + "_samples.csv");
    gen::write_samples_csv(parallel, samples);
    std::ofstream families(prefix + "_families.csv");
    gen::write_families_csv(parallel, families);
  }
  std::cout << "wrote " << prefix << "_samples.csv ("
            << parallel.samples.size() << " rows) and " << prefix
            << "_families.csv\n";

  // Machine artifact for the perf flight recorder (tools/bench_diff):
  // wall-clock totals, the pool speedup and per-family aggregate means.
  {
    std::ofstream json_file(json_path);
    bench::JsonWriter json(json_file);
    json.begin_object();
    json.field("bench", "ensembles");
    json.field("samples_per_family", config.samples_per_family);
    json.field("deterministic", identical);
    json.field("sequential_ms", sequential_s * 1000.0);
    json.field("parallel_ms", parallel_s * 1000.0);
    json.field("pool_speedup", parallel_s > 0.0 ? sequential_s / parallel_s
                                                : 0.0);
    json.key("engine").begin_object();
    json.field("incremental", parallel.engine_incremental);
    json.field("fallbacks", parallel.engine_fallbacks);
    json.end_object();
    json.key("families").begin_array();
    for (const auto& f : parallel.families) {
      json.begin_object();
      json.field("family", f.family);
      json.field("samples", static_cast<unsigned long long>(f.samples));
      json.field("th_mean", f.th_mean);
      json.field("rs_mean", f.rs_mean);
      json.field("area_mean", f.area_mean);
      json.field("anneal_ms_mean", f.anneal_ms_mean);
      json.field("throughput_ms_mean", f.throughput_ms_mean);
      json.end_object();
    }
    json.end_array();
    if (scale.ran) {
      json.key("scale").begin_object();
      json.field("pooled_ms", scale.pooled_ms);
      json.key("families").begin_array();
      for (const auto& r : scale.rows) {
        json.begin_object();
        json.field("family", r.family);
        json.field("samples", static_cast<unsigned long long>(r.samples));
        json.field("th_mean", r.th_mean);
        json.field("rs_mean", r.rs_mean);
        json.field("area_mean", r.area_mean);
        json.field("anneal_ms_mean", r.anneal_ms_mean);
        json.end_object();
      }
      json.end_array();
      json.end_object();
    }
    json.end_object();
    json_file << "\n";
  }
  std::cout << "wrote " << json_path << "\n\n";
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wp;

  gen::EnsembleConfig config = make_config();

  cli::ArgParser parser(
      "bench_ensembles",
      "Topology-ensemble bench: full floorplan→RS→throughput pipeline "
      "with optional golden/WP1/WP2 netlist simulation.");
  parser.option("--samples", "N", std::to_string(config.samples_per_family),
                "samples per family");
  parser.option("--families", "a,b,c", "",
                "subset of families to run (default: all)");
  parser.flag("--no-sim", "skip the netlist-simulation pass");
  parser.flag("--no-scale",
              "skip the 256/1024-node scale sweep");
  parser.option("--json", "PATH", "BENCH_ensembles.json",
                "perf flight-recorder artifact");
  parser.positional("prefix", "bench_ensembles",
                    "artifact name prefix (BENCH_<prefix>.json)");
  parser.parse_or_exit(argc, argv);

  config.samples_per_family = parser.get_int("--samples");
  if (parser.has("--no-sim")) config.simulate.enabled = false;

  const std::vector<std::string> keep = parser.get_list("--families");
  if (!keep.empty()) {
    std::vector<gen::FamilySpec> chosen;
    for (const auto& name : keep) {
      // Duplicates would run the same name-keyed seeds twice and emit
      // indistinguishable CSV rows.
      const auto dup = [&](const gen::FamilySpec& f) {
        return f.name == name;
      };
      if (std::any_of(chosen.begin(), chosen.end(), dup)) {
        std::cerr << "family '" << name << "' listed twice in --families\n";
        return 2;
      }
      bool found = false;
      for (const auto& family : config.families)
        if (family.name == name) {
          chosen.push_back(family);
          found = true;
        }
      if (!found) {
        std::cerr << "unknown family '" << name << "' — available:";
        for (const auto& family : config.families)
          std::cerr << " " << family.name;
        std::cerr << "\n";
        return 2;
      }
    }
    config.families = std::move(chosen);
  }

  const std::string prefix = parser.positional_value();

  std::cout << "Topology ensemble: " << config.families.size()
            << " families x " << config.samples_per_family
            << " samples, full floorplan->RS->throughput pipeline"
            << (config.simulate.enabled
                    ? " + golden/WP1/WP2 netlist simulation"
                    : "")
            << ", " << ThreadPool::shared().size() << " pool workers\n\n";

  // The scale sweep runs first (fixed config, independent of --samples /
  // --families so its snapshot rows stay comparable across invocations);
  // its JSON lands inside the same artifact via run_and_report.
  ScaleSection scale;
  if (!parser.has("--no-scale")) scale = run_scale_section();

  return run_and_report(config, prefix, parser.get("--json"), scale) ? 0 : 1;
}
