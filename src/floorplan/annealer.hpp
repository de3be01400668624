// Simulated-annealing floorplanner over sequence pairs, with a cost that
// can mix area, wirelength and — the wire-pipelining twist — the system
// throughput computed from the relay stations each placement implies.
// An area-driven run and a throughput-driven run of the same instance give
// the ablation of the paper's methodology (bench_floorplan_flow).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "floorplan/model.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"
#include "util/rng.hpp"

namespace wp {
class ThreadPool;
}

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
  /// thread-safe: one engine per concurrent run (anneal_parallel builds
  /// one per restart via ParallelAnnealOptions::engine_factory).
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
  /// Wall-clock breakdown (informational, never compared): time inside
  /// packing calls and inside the throughput oracle, for the bench
  /// tables/JSON showing each stage's share of the anneal.
  double pack_ms = 0.0;
  double throughput_ms = 0.0;
  std::uint64_t seed = 0;  ///< seed this restart ran with
};

/// Runs the annealer from a random start.
AnnealResult anneal(const Instance& inst, const AnnealOptions& options);

struct ParallelAnnealOptions {
  /// Options shared by every restart. Restart i runs with seed
  /// `base.seed + i`, so the restart set is reproducible from one master
  /// seed and matches the equivalent sequential best-of loop exactly.
  AnnealOptions base;
  int restarts = 8;
  /// Pool to fan the restarts over; nullptr uses ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// The per-run oracle seam: when set, called once per restart to build
  /// that restart's private throughput engine (overrides
  /// base.throughput_engine, which would otherwise be shared across
  /// workers and is refused). Without it a throughput-driven restart calls
  /// its copy of base.throughput_fn, so a callable whose copies share
  /// mutable state races across restarts.
  /// The engine lives for the duration of the restart; its counters land
  /// in the restart's AnnealResult.
  std::function<std::unique_ptr<graph::ThroughputEngine>()> engine_factory;
};

/// Runs `restarts` independently-seeded annealing restarts on the pool and
/// returns the best result. Selection is deterministic: strictly lower cost
/// wins, ties go to the lowest seed — bit-identical to running the restarts
/// sequentially through anneal() and reducing in seed order.
AnnealResult anneal_parallel(const Instance& inst,
                             const ParallelAnnealOptions& options);

}  // namespace wp::fplan
