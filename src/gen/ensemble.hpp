// Ensemble runner: fans N seeded samples per topology family through the
// full methodology pipeline — generate topology, dress it into a
// floorplannable system, anneal a throughput-aware floorplan, derive the
// placement's relay-station demand, and score the resulting min-cycle-
// ratio system throughput — then aggregates per-family distribution
// statistics and writes tidy CSV. Opt-in (EnsembleSimOptions): simulate
// each sample's generated netlist as a golden/WP1/WP2 triple through the
// simulation oracle, so rows carry *simulated* throughput next to the
// static m/(m+n) bound.
//
// Determinism contract: every sample owns an Rng derived arithmetically
// from (ensemble seed, family name, sample index) and a private
// graph::ThroughputEngine (the incremental min-cycle-ratio oracle), so the
// pooled run writes results into input-order slots and is bit-identical to
// the sequential run under the same config (checked by test_gen and by
// bench_ensembles on every invocation).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "floorplan/annealer.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"

namespace wp {
class ThreadPool;
}
namespace wp::sim {
class GoldenCache;
}

namespace wp::gen {

/// One family of the ensemble: how to generate and how to dress.
struct FamilySpec {
  std::string name;  ///< CSV/report key, e.g. "ba-32"
  TopologyConfig topology;
  SystemConfig system;
  /// Per-family override of EnsembleConfig::anneal.iterations; 0 keeps the
  /// ensemble-wide budget. Lets large families (128–1024 nodes) ride in
  /// the default set with a smaller per-sample budget.
  int anneal_iterations = 0;
  /// Per-family overrides of the simulation horizons
  /// (EnsembleSimOptions::golden_cycles / wp_cycles); 0 keeps the
  /// ensemble-wide values. A fixed horizon stops making sense once
  /// families span 24–1024 nodes: a token must cross the whole network
  /// (plus relay stations) before throughput stabilizes, so the horizon
  /// must scale with the topology *diameter* — long for a 32×32 mesh,
  /// nearly flat for a scale-free BA graph whose diameter grows ~log n.
  /// scale_family_specs() fills these from a per-family diameter estimate.
  std::uint64_t golden_cycles = 0;
  std::uint64_t wp_cycles = 0;
};

/// Opt-in simulated-throughput mode: run every sample's generated
/// randommoore netlist through a golden/WP1/WP2 triple (sim::simulate_
/// netlist, golden cached per netlist) under the placement-derived RS
/// demand, landing th_wp1_sim/th_wp2_sim next to the static bound.
struct EnsembleSimOptions {
  bool enabled = false;
  std::uint64_t golden_cycles = 256;  ///< golden horizon (τ-trace length)
  std::uint64_t wp_cycles = 1536;     ///< WP1/WP2 horizon
  std::size_t fifo_capacity = 16;
  bool check_equivalence = true;      ///< τ-filtered check vs cached golden
};

struct EnsembleConfig {
  std::vector<FamilySpec> families;
  int samples_per_family = 20;
  std::uint64_t seed = 1;
  EnsembleSimOptions simulate;
  /// Per-sample annealing job; seed and throughput_fn are overridden per
  /// sample (private evaluator). weight_throughput > 0 makes the
  /// floorplanner fight for loop throughput, the paper's methodology.
  /// anneal.pack_engine selects the packing engine (default kMovePacker;
  /// placements are bit-identical to kNaive).
  fplan::AnnealOptions anneal;
  /// Johnson cycle-enumeration cap for the per-sample cycle count; graphs
  /// whose elementary-cycle count exceeds it record cycles = -1 instead of
  /// exploding. 0 skips counting entirely.
  std::size_t max_cycle_enumeration = 20000;

  EnsembleConfig() {
    anneal.iterations = 2500;
    anneal.weight_wirelength = 0.05;
    anneal.weight_throughput = 50.0;
  }
};

/// One topology sample scored through the full pipeline.
struct SampleResult {
  std::string family;
  int sample = 0;
  std::uint64_t seed = 0;      ///< the derived per-sample seed
  int nodes = 0;
  int edges = 0;
  long long cycles = 0;        ///< elementary cycles; -1 = over the cap
  int total_rs = 0;            ///< placement-implied relay stations, summed
  double area = 0.0;           ///< annealed bounding-box area (mm^2)
  double wirelength = 0.0;     ///< annealed HPWL (mm)
  double throughput = 1.0;     ///< min cycle ratio under the derived RS
  /// Simulated throughputs (EnsembleSimOptions; zeros when not simulated):
  /// the generated netlist's golden/WP1/WP2 triple under the same
  /// placement-derived RS demand the static bound was scored with.
  bool simulated = false;
  double th_wp1_sim = 0.0;
  double th_wp2_sim = 0.0;
  bool sim_ok = true;          ///< equivalence + progress verdict
  /// ThroughputEngine counters over the whole sample (anneal moves + final
  /// scoring query). Deterministic — the demand stream is seed-derived and
  /// the engine's control flow is pure — so they participate in the
  /// sequential≡pooled comparison, which then also guards the engine's
  /// path selection against nondeterminism.
  std::uint64_t engine_incremental = 0;
  std::uint64_t engine_fallbacks = 0;
  /// Wall-clock of this sample's anneal (and the slice of it spent inside
  /// the throughput oracle), for the CSV artifact. Deliberately excluded
  /// from operator== — timing is noisy and must not fail the
  /// sequential≡pooled determinism check.
  double anneal_ms = 0.0;
  double throughput_ms = 0.0;

  bool operator==(const SampleResult& other) const;
};

/// Per-family distribution statistics over the sample set.
struct FamilyStats {
  std::string family;
  std::size_t samples = 0;
  double th_mean = 0.0;
  double th_median = 0.0;
  double th_p95 = 0.0;
  double th_min = 0.0;
  double th_max = 0.0;
  double rs_mean = 0.0;        ///< mean total relay stations
  double cycles_mean = 0.0;    ///< over samples whose count completed
  std::size_t cycles_counted = 0;
  double area_mean = 0.0;
  double wirelength_mean = 0.0;
  std::size_t sim_samples = 0;   ///< samples that carried a simulation
  double th_wp1_sim_mean = 0.0;  ///< over sim_samples; 0 when none
  double th_wp2_sim_mean = 0.0;
  std::size_t sim_failures = 0;  ///< samples whose sim verdict failed
  double anneal_ms_mean = 0.0;  ///< wall-clock; informational, not compared
  double throughput_ms_mean = 0.0;  ///< oracle share of the anneal; ditto
};

struct EnsembleReport {
  std::vector<SampleResult> samples;  ///< family-major, sample order
  std::vector<FamilyStats> families;  ///< config order
  /// Golden-cache statistics of the run's simulation oracle (zeros when
  /// simulation was off). Informational — never part of the determinism
  /// comparison.
  std::uint64_t sim_golden_runs = 0;
  std::uint64_t sim_cache_hits = 0;
  /// ThroughputEngine totals summed over all samples: queries the
  /// incremental certificate absorbed vs cold re-solves.
  std::uint64_t engine_incremental = 0;
  std::uint64_t engine_fallbacks = 0;
};

/// The self-contained description of ONE ensemble sample — everything
/// run_sample_job needs to reproduce the sample bit for bit, with no
/// reference to the enclosing EnsembleConfig. This is the unit of work the
/// evaluation service ships to remote workers (eval::EvalRequest's
/// ensemble-sample kind), and the unit run_ensemble executes in process:
/// both paths call run_sample_job, so a sharded ensemble is byte-identical
/// to a single-process run by construction.
struct SampleJob {
  FamilySpec family;
  int sample = 0;                    ///< index within the family
  std::uint64_t ensemble_seed = 1;   ///< EnsembleConfig::seed
  EnsembleSimOptions simulate;
  /// Non-serializable members (throughput_fn/throughput_engine) are
  /// ignored: every sample owns a private engine.
  fplan::AnnealOptions anneal;
  std::size_t max_cycle_enumeration = 20000;
};

/// The 256/512/1024-node scale substrate: Barabási–Albert (the hub-heavy
/// regime where global-move dirty fractions are largest) and 2D mesh (the
/// regular NoC fabric) families with per-family anneal budgets and
/// diameter-scaled simulation horizons — BA diameters grow ~log n so
/// horizons stay nearly flat, mesh diameters grow as rows+cols so the
/// 32×32 fabric gets the long horizon it needs. These are the substrate
/// the trace-informed demand work will stress.
std::vector<FamilySpec> scale_family_specs();

/// The arithmetic per-sample seed: keyed on the family *name* (not index)
/// so filtered/reordered/sharded runs reproduce full-run rows bit for bit.
std::uint64_t derive_sample_seed(std::uint64_t ensemble_seed,
                                 const std::string& family_name, int sample);

/// Scores one sample through the full pipeline (generate → dress → anneal
/// → RS demand → throughput, plus the opt-in golden/WP1/WP2 netlist
/// simulation). `golden_cache` may be nullptr (fresh golden run); when the
/// job does not simulate it is unused. Deterministic in the job alone.
SampleResult run_sample_job(const SampleJob& job,
                            sim::GoldenCache* golden_cache);

/// The jobs run_ensemble executes, family-major in config order — exposed
/// so sharded runners can build the identical work list.
std::vector<SampleJob> ensemble_jobs(const EnsembleConfig& config);

/// Per-family statistics of a family-major sample vector (the aggregation
/// step of run_ensemble, shared with sharded merges).
std::vector<FamilyStats> aggregate_families(
    const EnsembleConfig& config, const std::vector<SampleResult>& samples);

/// Runs the whole ensemble on the pool (nullptr = ThreadPool::shared()).
EnsembleReport run_ensemble(const EnsembleConfig& config,
                            ThreadPool* pool = nullptr);

/// The plain-loop reference: bit-identical results to run_ensemble().
EnsembleReport run_ensemble_sequential(const EnsembleConfig& config);

/// Tidy CSV, one row per sample / per family (with header row).
void write_samples_csv(const EnsembleReport& report, std::ostream& os);
void write_families_csv(const EnsembleReport& report, std::ostream& os);

}  // namespace wp::gen
