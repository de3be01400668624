#include "gen/ensemble.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <ostream>
#include <utility>

#include "eval/evaluate.hpp"
#include "eval/request.hpp"
#include "graph/cycles.hpp"
#include "sim/oracle.hpp"
#include "graph/throughput_engine.hpp"
#include "sim/netlist_sim.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace wp::gen {

/// Arithmetic (not stream-dependent) per-sample seed, so sequential,
/// pooled and sharded runs derive identical streams in any execution
/// order. Keyed on the family *name*, not its index, so filtering or
/// reordering the family list (bench_ensembles --families) reproduces the
/// unfiltered run's rows bit for bit. Families must have distinct names
/// (the CSV key already assumes this).
std::uint64_t derive_sample_seed(std::uint64_t ensemble_seed,
                                 const std::string& family_name,
                                 int sample) {
  const std::uint64_t lane = hash_string(family_name) * 1000003ULL +
                             static_cast<std::uint64_t>(sample) + 1ULL;
  return ensemble_seed + 0x9e3779b97f4a7c15ULL * lane;
}

SampleResult run_sample_job(const SampleJob& job,
                            sim::GoldenCache* golden_cache) {
  const FamilySpec& family = job.family;
  SampleResult result;
  result.family = family.name;
  result.sample = job.sample;
  result.seed = derive_sample_seed(job.ensemble_seed, family.name,
                                   job.sample);

  Rng rng(result.seed);
  const graph::Digraph topology =
      generate_topology(family.topology, rng);
  const GeneratedSystem sys = dress_topology(topology, family.system, rng);
  result.nodes = topology.num_nodes();
  result.edges = topology.num_edges();

  // Throughput must be placement-driven: score against the topology with
  // its generator RS annotations cleared, then apply the demand the
  // annealed placement implies. The sample owns one incremental engine for
  // its whole lifetime — the RS graph is built once here and every anneal
  // move mutates it in place.
  graph::Digraph base = topology;
  for (graph::EdgeId e = 0; e < base.num_edges(); ++e)
    base.edge(e).relay_stations = 0;
  graph::ThroughputEngine engine(std::move(base));

  fplan::AnnealOptions options = job.anneal;
  options.throughput_fn = nullptr;  // the private engine is the oracle
  if (family.anneal_iterations > 0)
    options.iterations = family.anneal_iterations;
  options.seed = result.seed;
  options.throughput_engine = &engine;
  const auto anneal_start = std::chrono::steady_clock::now();
  const fplan::AnnealResult annealed = fplan::anneal(sys.instance, options);
  result.anneal_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - anneal_start)
                         .count();
  result.throughput_ms = annealed.throughput_ms;
  result.area = annealed.area;
  result.wirelength = annealed.wirelength;

  const auto demand =
      fplan::rs_demand(sys.instance, annealed.placement, options.delay_model);
  for (const auto& [connection, rs] : demand) {
    (void)connection;
    result.total_rs += rs;
  }
  result.throughput = engine.throughput(demand);
  result.engine_incremental = engine.stats().incremental();
  result.engine_fallbacks = engine.stats().fallbacks;

  if (job.simulate.enabled) {
    WP_REQUIRE(!sys.netlist.empty(),
               "family " + family.name +
                   " asked for simulation but dressed netlist-free "
                   "(system.build_netlist = false)");
    // Simulated counterpart of the static bound: the generated netlist's
    // golden/WP1/WP2 triple under the same placement-derived RS demand.
    // The golden run is keyed by the netlist text, so WP1, WP2 and the two
    // equivalence checks share one cached record.
    sim::NetlistSimOptions sim_options;
    sim_options.golden_cycles = job.simulate.golden_cycles;
    sim_options.wp_cycles = job.simulate.wp_cycles;
    sim_options.fifo_capacity = job.simulate.fifo_capacity;
    sim_options.check_equivalence = job.simulate.check_equivalence;
    const std::map<std::string, int> rs_map(demand.begin(), demand.end());
    const sim::NetlistSimResult sim_result =
        sim::simulate_netlist(sys.netlist, rs_map, sim_options, golden_cache);
    result.simulated = true;
    result.th_wp1_sim = sim_result.th_wp1;
    result.th_wp2_sim = sim_result.th_wp2;
    result.sim_ok = sim_result.wp1_equivalent && sim_result.wp2_equivalent &&
                    sim_result.wp1_firings > 0 && sim_result.wp2_firings > 0;
  }

  if (job.max_cycle_enumeration == 0) {
    result.cycles = -1;
  } else {
    try {
      result.cycles = static_cast<long long>(
          graph::enumerate_cycles(topology, job.max_cycle_enumeration)
              .size());
    } catch (const ContractViolation&) {
      result.cycles = -1;  // count explosion, not an error
    }
  }
  return result;
}

std::vector<FamilyStats> aggregate_families(
    const EnsembleConfig& config, const std::vector<SampleResult>& samples) {
  std::vector<FamilyStats> families;
  const auto per_family = static_cast<std::size_t>(
      std::max(config.samples_per_family, 0));
  for (std::size_t f = 0; f < config.families.size(); ++f) {
    FamilyStats stats;
    stats.family = config.families[f].name;
    RunningStats th, rs, area, wl, cycles, anneal_ms, th_ms, th1_sim,
        th2_sim;
    std::vector<double> th_values;
    for (std::size_t i = f * per_family; i < (f + 1) * per_family; ++i) {
      const SampleResult& s = samples[i];
      th.add(s.throughput);
      th_values.push_back(s.throughput);
      rs.add(static_cast<double>(s.total_rs));
      area.add(s.area);
      wl.add(s.wirelength);
      anneal_ms.add(s.anneal_ms);
      th_ms.add(s.throughput_ms);
      if (s.cycles >= 0) cycles.add(static_cast<double>(s.cycles));
      if (s.simulated) {
        th1_sim.add(s.th_wp1_sim);
        th2_sim.add(s.th_wp2_sim);
        if (!s.sim_ok) ++stats.sim_failures;
      }
    }
    stats.samples = th.count();
    if (stats.samples > 0) {
      stats.th_mean = th.mean();
      stats.th_median = percentile(th_values, 50.0);
      stats.th_p95 = percentile(th_values, 95.0);
      stats.th_min = th.min();
      stats.th_max = th.max();
      stats.rs_mean = rs.mean();
      stats.area_mean = area.mean();
      stats.wirelength_mean = wl.mean();
      stats.anneal_ms_mean = anneal_ms.mean();
      stats.throughput_ms_mean = th_ms.mean();
    }
    stats.cycles_counted = cycles.count();
    if (stats.cycles_counted > 0) stats.cycles_mean = cycles.mean();
    stats.sim_samples = th2_sim.count();
    if (stats.sim_samples > 0) {
      stats.th_wp1_sim_mean = th1_sim.mean();
      stats.th_wp2_sim_mean = th2_sim.mean();
    }
    families.push_back(std::move(stats));
  }
  return families;
}

namespace {

EnsembleReport run_jobs(const EnsembleConfig& config, ThreadPool* pool) {
  const std::vector<SampleJob> jobs = ensemble_jobs(config);
  EnsembleReport report;
  report.samples.resize(jobs.size());
  // One oracle for the whole run, wired through the factory (thread-safe,
  // per-key once-semantics): every sample's WP1/WP2 pair replays one
  // cached golden, and repeat netlists across samples are cache hits.
  // Generated netlists are all distinct in a typical ensemble, so a cap
  // around the worker count keeps memory flat without costing hits.
  sim::OracleOptions oracle_options;
  oracle_options.max_cached_goldens = 64;
  const std::shared_ptr<sim::SimOracle> oracle =
      sim::SimOracle::make_shared(oracle_options);
  eval::EvalContext context;
  context.oracle = oracle.get();
  // Every sample goes through the ONE evaluation surface — the same
  // eval::evaluate the service daemon calls for a remote ensemble-sample
  // request, so in-process and sharded ensembles execute literally the
  // same code.
  auto body = [&](std::size_t i) {
    report.samples[i] =
        eval::unwrap_sample(eval::evaluate(eval::EvalRequest(jobs[i]),
                                           context));
  };
  if (pool == nullptr) {
    for (std::size_t i = 0; i < jobs.size(); ++i) body(i);
  } else {
    pool->parallel_for(0, jobs.size(), body);
  }
  const sim::GoldenCache::Stats cache_stats = oracle->stats();
  report.sim_golden_runs = cache_stats.golden_runs;
  report.sim_cache_hits = cache_stats.hits;
  for (const SampleResult& s : report.samples) {
    report.engine_incremental += s.engine_incremental;
    report.engine_fallbacks += s.engine_fallbacks;
  }
  report.families = aggregate_families(config, report.samples);
  return report;
}

}  // namespace

std::vector<FamilySpec> scale_family_specs() {
  // Horizons from a per-family diameter estimate: the golden run must let
  // a token cross the network and settle (64 warmup + 16 cycles per hop
  // of diameter), and the WP horizons keep the stock 6× ratio to the
  // golden horizon (long enough to average out relay-station beat
  // patterns). BA diameter grows ~log2 n; a rows×cols mesh's is
  // rows+cols. Anneal budgets shrink with n so a scale sweep stays
  // within a CI bench budget.
  const auto horizons = [](FamilySpec& f, int diameter) {
    f.golden_cycles = 64 + 16 * static_cast<std::uint64_t>(diameter);
    f.wp_cycles = 6 * f.golden_cycles;
  };
  std::vector<FamilySpec> families;
  for (const int nodes : {256, 512, 1024}) {
    FamilySpec ba;
    ba.name = "ba-" + std::to_string(nodes);
    ba.topology.family = TopologyFamily::kBarabasiAlbert;
    ba.topology.num_nodes = nodes;
    ba.topology.ba_attach = 2;
    ba.anneal_iterations = nodes >= 1024 ? 300 : nodes >= 512 ? 450 : 700;
    // Scale-free hubs at these sizes exceed the randommoore 32-input
    // port model; the BA families dress floorplan/throughput-only, so
    // the anneal → RS demand → min-cycle-ratio pipeline runs in full
    // while simulation stays a mesh-family capability.
    ba.system.build_netlist = false;
    int log2n = 0;
    while ((1 << log2n) < nodes) ++log2n;
    horizons(ba, log2n);
    families.push_back(std::move(ba));
  }
  const int mesh_dims[][2] = {{16, 16}, {16, 32}, {32, 32}};
  for (const auto& dims : mesh_dims) {
    const int nodes = dims[0] * dims[1];
    FamilySpec mesh;
    mesh.name = "mesh-" + std::to_string(dims[0]) + "x" +
                std::to_string(dims[1]);
    mesh.topology.family = TopologyFamily::kMesh;
    mesh.topology.num_nodes = nodes;
    mesh.topology.mesh_rows = dims[0];
    mesh.topology.mesh_cols = dims[1];
    mesh.anneal_iterations = nodes >= 1024 ? 300 : nodes >= 512 ? 450 : 700;
    horizons(mesh, dims[0] + dims[1]);
    families.push_back(std::move(mesh));
  }
  return families;
}

std::vector<SampleJob> ensemble_jobs(const EnsembleConfig& config) {
  WP_REQUIRE(!config.families.empty(), "ensemble needs at least one family");
  WP_REQUIRE(config.samples_per_family > 0,
             "samples_per_family must be > 0");
  std::vector<SampleJob> jobs;
  jobs.reserve(config.families.size() *
               static_cast<std::size_t>(config.samples_per_family));
  for (const FamilySpec& family : config.families) {
    for (int s = 0; s < config.samples_per_family; ++s) {
      SampleJob job;
      job.family = family;
      job.sample = s;
      job.ensemble_seed = config.seed;
      job.simulate = config.simulate;
      // Diameter-scaled horizons: a family that declares its own
      // simulation horizons overrides the ensemble-wide ones, so one
      // config can mix 24-node and 1024-node families without simulating
      // the former too long or the latter too short.
      if (family.golden_cycles > 0)
        job.simulate.golden_cycles = family.golden_cycles;
      if (family.wp_cycles > 0) job.simulate.wp_cycles = family.wp_cycles;
      job.anneal = config.anneal;
      job.max_cycle_enumeration = config.max_cycle_enumeration;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

bool SampleResult::operator==(const SampleResult& other) const {
  // anneal_ms/throughput_ms are wall-clock and intentionally absent: the
  // sequential vs pooled determinism check compares results, not timings.
  // The engine counters ARE compared — path selection inside the
  // throughput engine must be deterministic.
  return family == other.family && sample == other.sample &&
         seed == other.seed && nodes == other.nodes &&
         edges == other.edges && cycles == other.cycles &&
         total_rs == other.total_rs && area == other.area &&
         wirelength == other.wirelength && throughput == other.throughput &&
         simulated == other.simulated && th_wp1_sim == other.th_wp1_sim &&
         th_wp2_sim == other.th_wp2_sim && sim_ok == other.sim_ok &&
         engine_incremental == other.engine_incremental &&
         engine_fallbacks == other.engine_fallbacks;
}

EnsembleReport run_ensemble(const EnsembleConfig& config, ThreadPool* pool) {
  return run_jobs(config, pool == nullptr ? &ThreadPool::shared() : pool);
}

EnsembleReport run_ensemble_sequential(const EnsembleConfig& config) {
  return run_jobs(config, nullptr);
}

void write_samples_csv(const EnsembleReport& report, std::ostream& os) {
  CsvWriter csv(os);
  csv.row({"family", "sample", "seed", "nodes", "edges", "cycles",
           "total_rs", "area_mm2", "wirelength_mm", "throughput",
           "th_wp1_sim", "th_wp2_sim", "sim_ok", "anneal_ms",
           "throughput_ms", "engine_incremental", "engine_fallbacks"});
  for (const auto& s : report.samples)
    csv.row({s.family, std::to_string(s.sample), std::to_string(s.seed),
             std::to_string(s.nodes), std::to_string(s.edges),
             std::to_string(s.cycles), std::to_string(s.total_rs),
             fmt_fixed(s.area, 6), fmt_fixed(s.wirelength, 6),
             fmt_fixed(s.throughput, 6),
             s.simulated ? fmt_fixed(s.th_wp1_sim, 6) : std::string(),
             s.simulated ? fmt_fixed(s.th_wp2_sim, 6) : std::string(),
             std::string(s.simulated ? (s.sim_ok ? "1" : "0") : ""),
             fmt_fixed(s.anneal_ms, 3), fmt_fixed(s.throughput_ms, 3),
             std::to_string(s.engine_incremental),
             std::to_string(s.engine_fallbacks)});
}

void write_families_csv(const EnsembleReport& report, std::ostream& os) {
  CsvWriter csv(os);
  csv.row({"family", "samples", "th_mean", "th_median", "th_p95", "th_min",
           "th_max", "rs_mean", "cycles_mean", "cycles_counted", "area_mean",
           "wirelength_mean", "th_wp1_sim_mean", "th_wp2_sim_mean",
           "sim_failures", "anneal_ms_mean", "throughput_ms_mean"});
  for (const auto& f : report.families)
    csv.row({f.family, std::to_string(f.samples), fmt_fixed(f.th_mean, 6),
             fmt_fixed(f.th_median, 6), fmt_fixed(f.th_p95, 6),
             fmt_fixed(f.th_min, 6), fmt_fixed(f.th_max, 6),
             fmt_fixed(f.rs_mean, 3), fmt_fixed(f.cycles_mean, 3),
             std::to_string(f.cycles_counted), fmt_fixed(f.area_mean, 3),
             fmt_fixed(f.wirelength_mean, 3),
             f.sim_samples > 0 ? fmt_fixed(f.th_wp1_sim_mean, 6)
                               : std::string(),
             f.sim_samples > 0 ? fmt_fixed(f.th_wp2_sim_mean, 6)
                               : std::string(),
             f.sim_samples > 0 ? std::to_string(f.sim_failures)
                               : std::string(),
             fmt_fixed(f.anneal_ms_mean, 3),
             fmt_fixed(f.throughput_ms_mean, 3)});
}

}  // namespace wp::gen
