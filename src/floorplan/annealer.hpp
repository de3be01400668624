// Simulated-annealing floorplanner over sequence pairs, with a cost that
// can mix area, wirelength and — the wire-pipelining twist — the system
// throughput computed from the relay stations each placement implies.
// An area-driven run and a throughput-driven run of the same instance give
// the ablation of the paper's methodology (bench_floorplan_flow).
#pragma once

#include <cstdint>
#include <functional>

#include "floorplan/model.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"
#include "util/rng.hpp"

namespace wp::graph {
class ThroughputEngine;
}

namespace wp::fplan {

/// Signature of the system-throughput oracle the annealer consults.
using ThroughputFn = std::function<double(
    const std::vector<std::pair<std::string, int>>& demand)>;

struct AnnealOptions {
  double weight_area = 1.0;
  double weight_wirelength = 0.1;
  /// Weight on (1 - system throughput); 0 = classic area/WL floorplanning.
  double weight_throughput = 0.0;
  /// The one reference seam: computes the system throughput from
  /// per-connection RS demand. Required when weight_throughput > 0 unless
  /// `throughput_engine` is set. Production callers wire an engine; the
  /// differential tests pass a stateless fn that solves a configured copy
  /// of the graph fresh with graph::min_cycle_ratio_howard(), the
  /// reference the engine matches bit for bit. Called once per scored
  /// placement, with nothing cached in front of it.
  ThroughputFn throughput_fn;
  /// Incremental throughput oracle (non-owning), the production path. When
  /// set it takes precedence over throughput_fn: every scored placement
  /// of a throughput-driven run is one engine query — results are
  /// bit-identical to a fresh min-cycle-ratio solve per demand (the
  /// engine's exact-fallback contract) — and the run records the engine's
  /// path counters in AnnealResult. Engines are stateful and not
  /// thread-safe: one engine per concurrent run (multi-seed callers build
  /// one per seed inside their ThreadPool::parallel_for body).
  graph::ThroughputEngine* throughput_engine = nullptr;
  WireDelayModel delay_model;

  int iterations = 20000;
  double initial_temperature = 1.0;
  double cooling = 0.9995;       ///< geometric cooling per iteration
  std::uint64_t seed = 42;
  /// Packing implementation for the move loop. Both engines yield
  /// bit-identical placements (and therefore identical annealing
  /// trajectories under a fixed seed): kNaive re-runs the O(n²) relaxation
  /// per move and stays the differential oracle, kMovePacker (the
  /// default) re-packs each candidate with the MovePacker's fused pass.
  PackEngine pack_engine = PackEngine::kMovePacker;
};

struct AnnealResult {
  SequencePair sequence_pair;
  Placement placement;
  /// The best placement's cost and its three terms, as the run scored it
  /// when it became the best.
  double cost = 0;
  double area = 0;
  double wirelength = 0;
  /// System throughput of the best placement, from throughput_engine or
  /// throughput_fn; 1.0 when weight_throughput is 0 (no oracle consulted).
  double throughput = 1.0;
  int accepted_moves = 0;
  /// Candidates scored by the move loop (the initial placement excluded).
  int evaluations = 0;
  /// Throughput-oracle queries: one per scored placement of a
  /// throughput-driven run, evaluations + 1 with the initial placement;
  /// 0 otherwise.
  int throughput_evals = 0;
  /// Retired: the demand memo it counted is gone, so it is always 0. It
  /// is deleted in the next benchmark change, together with wpbench's
  /// graph.memo_hit_ratio, which reads it.
  int throughput_cache_hits = 0;
  /// ThroughputEngine counter deltas for this run (zeros when the run used
  /// a plain throughput_fn): oracle queries resolved incrementally
  /// (unchanged demand, or the dual certificate held/repaired) vs cold
  /// certified re-solves. incremental + fallbacks equals the engine
  /// queries the run issued, which is throughput_evals.
  std::uint64_t engine_incremental = 0;
  std::uint64_t engine_fallbacks = 0;
  /// A throughput-driven run's best placement as the oracle scores it:
  /// `demand` holds its relay stations per connection, in the run's
  /// DemandIndex order (sorted labels, the order rs_demand() emits), and
  /// `demand_ids` the throughput_engine's label id per connection (empty
  /// for a throughput_fn run). Re-scoring the best placement on the run's
  /// engine is throughput(demand_ids, demand): the query
  /// throughput(rs_demand(...)) makes, without interning the labels again.
  /// Both empty for an area-driven run.
  std::vector<int> demand;
  std::vector<int> demand_ids;
  /// Wall-clock breakdown (informational, never compared): time inside
  /// packing calls and inside the throughput oracle, for the bench
  /// tables/JSON showing each stage's share of the anneal.
  double pack_ms = 0.0;
  double throughput_ms = 0.0;
  std::uint64_t seed = 0;  ///< seed this restart ran with
};

/// Runs the annealer from a random start.
AnnealResult anneal(const Instance& inst, const AnnealOptions& options);

}  // namespace wp::fplan
