#include "floorplan/annealer.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "floorplan/pack_engine.hpp"
#include "graph/throughput_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace wp::fplan {

namespace {

using Clock = std::chrono::steady_clock;

/// Anneal counters flushed ONCE per run from the AnnealResult tallies the
/// hot loop already keeps — the loop itself stays free of atomics, so the
/// obs layer costs nothing per move.
struct AnnealMetrics {
  obs::Counter& runs;
  obs::Counter& evaluations;
  obs::Counter& accepted_moves;
  obs::Counter& throughput_evals;
  obs::Histogram& run_ns;

  static AnnealMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static AnnealMetrics metrics{
        registry.counter("anneal/runs"),
        registry.counter("anneal/evaluations"),
        registry.counter("anneal/accepted_moves"),
        registry.counter("anneal/throughput_evals"),
        registry.histogram("anneal/run_ns")};
    return metrics;
  }
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Cost evaluator for one annealing run, and the one place a placement is
/// scored: each candidate costs one flat pass over the run's net arrays
/// and, when the run is throughput-driven, exactly one oracle query. An
/// area-driven run sums wirelength through a NetGeometry, which needs no
/// labels and so skips the label sort. A throughput-driven run interns the
/// instance's connection labels once (DemandIndex): its derive() pass
/// yields wirelength and RS demand together, and the oracle is addressed
/// by connection id. Both sum wirelength bit-identically to
/// total_wirelength(), so the terms a score carries are the reported ones.
class CostModel {
 public:
  /// A placement's objective and the three terms it combines.
  struct Score {
    double cost;
    double area;
    double wirelength;
    double throughput;  ///< 1.0 when the run is not throughput-driven
  };

  CostModel(const Instance& inst, const AnnealOptions& options)
      : options_(options) {
    if (options_.weight_throughput == 0.0) {
      nets_.emplace(inst);
      return;
    }
    WP_REQUIRE(options_.throughput_engine != nullptr ||
                   static_cast<bool>(options_.throughput_fn),
               "throughput weight set but neither throughput_engine nor "
               "throughput_fn provided");
    index_.emplace(inst);
    if (options_.throughput_engine != nullptr) {
      ids_ = options_.throughput_engine->resolve(index_->labels());
    } else {
      for (const std::string& label : index_->labels())
        demand_.emplace_back(label, 0);
    }
  }

  Score score(const Placement& placement, AnnealResult& stats) {
    const double area = placement.area();
    if (nets_) return combine(area, nets_->wirelength(placement), 1.0);
    const double wirelength =
        index_->derive(placement, options_.delay_model, rs_);
    return combine(area, wirelength, throughput(stats));
  }

 private:
  Score combine(double area, double wirelength, double throughput) const {
    return {options_.weight_area * area +
                options_.weight_wirelength * wirelength +
                options_.weight_throughput * (1.0 - throughput),
            area, wirelength, throughput};
  }

  /// One oracle query for the demand derive() left in rs_.
  double throughput(AnnealResult& stats) {
    WP_SPAN("anneal/throughput");
    const auto oracle_start = Clock::now();
    double th;
    if (options_.throughput_engine != nullptr) {
      th = options_.throughput_engine->throughput(ids_, rs_);
    } else {
      for (std::size_t c = 0; c < rs_.size(); ++c) demand_[c].second = rs_[c];
      th = options_.throughput_fn(demand_);
    }
    stats.throughput_ms += ms_since(oracle_start);
    ++stats.throughput_evals;
    return th;
  }

  const AnnealOptions& options_;
  std::optional<NetGeometry> nets_;   ///< area-driven runs
  std::optional<DemandIndex> index_;  ///< throughput-driven runs
  std::vector<int> rs_;   ///< score()'s derive scratch
  std::vector<int> ids_;  ///< engine label id per connection id
  /// throughput_fn's argument: labels filled once, counts per query.
  std::vector<std::pair<std::string, int>> demand_;
};

/// Makes `score` the run's best so far: its cost and terms are the ones
/// anneal() reports.
void keep_terms(const CostModel::Score& score, AnnealResult& best) {
  best.cost = score.cost;
  best.area = score.area;
  best.wirelength = score.wirelength;
  best.throughput = score.throughput;
}

/// The move loop. The MovePacker re-packs each candidate with one fused
/// pass and parks the baseline for an O(1) revert; the naive engine
/// re-packs from scratch. Placements are bit-identical across both, so the
/// accept/reject stream — and hence the whole trajectory — is
/// engine-independent. Wirelength is a sequential full scan: under uniform
/// global swaps a candidate moves ~n/3 blocks, touching most nets, and a
/// hardware-prefetched pass over the net array beats any dirty-set walk at
/// that density (measured; an incremental tracker was tried and lost at
/// every instance family).
void run_loop(const Instance& inst, const AnnealOptions& options,
              CostModel& model, SequencePair& current, Rng& rng,
              AnnealResult& best) {
  const bool naive = options.pack_engine == PackEngine::kNaive;
  const auto initial_pack_start = Clock::now();
  std::optional<MovePacker> packer;
  Placement scratch;
  {
    WP_SPAN("anneal/pack");
    if (naive) {
      scratch = pack(inst, current);
    } else {
      packer.emplace(inst, current);
    }
  }
  best.pack_ms += ms_since(initial_pack_start);
  const Placement* placement = naive ? &scratch : &packer->placement();
  keep_terms(model.score(*placement, best), best);
  best.sequence_pair = current;
  best.placement = *placement;
  double current_cost = best.cost;

  double temperature = options.initial_temperature *
                       std::max(current_cost, 1e-9);
  for (int it = 0; it < options.iterations; ++it) {
    const AppliedMove move = random_move(current, rng);
    const auto pack_start = Clock::now();
    const Placement* candidate;
    if (naive) {
      scratch = pack(inst, current);
      candidate = &scratch;
    } else {
      candidate = &packer->apply(move);
    }
    best.pack_ms += ms_since(pack_start);
    const CostModel::Score score = model.score(*candidate, best);
    ++best.evaluations;
    const double delta = score.cost - current_cost;
    if (delta <= 0 ||
        rng.uniform() < std::exp(-delta / std::max(temperature, 1e-12))) {
      current_cost = score.cost;
      ++best.accepted_moves;
      if (!naive) packer->commit();
      if (score.cost < best.cost) {
        keep_terms(score, best);
        best.sequence_pair = current;
        best.placement = *candidate;
      }
    } else {
      undo_move(current, move);
      if (!naive) packer->revert();
    }
    temperature *= options.cooling;
  }
}

}  // namespace

AnnealResult anneal(const Instance& inst, const AnnealOptions& options) {
  WP_SPAN("anneal/run");
  WP_REQUIRE(inst.blocks.size() >= 2, "need at least two blocks");
  WP_REQUIRE(options.iterations > 0, "need at least one iteration");
  WP_REQUIRE(std::isfinite(options.initial_temperature) &&
                 options.initial_temperature > 0,
             "initial_temperature must be finite and positive");
  WP_REQUIRE(options.cooling > 0 && options.cooling <= 1,
             "cooling must lie in (0, 1]");
  for (const double weight : {options.weight_area, options.weight_wirelength,
                              options.weight_throughput})
    WP_REQUIRE(std::isfinite(weight) && weight >= 0,
               "objective weights must be finite and non-negative");
  const std::uint64_t run_start_ns = obs::now_ns();
  wp::Rng rng(options.seed);

  AnnealResult best;
  best.seed = options.seed;
  const graph::ThroughputEngine::Stats engine_before =
      options.throughput_engine != nullptr ? options.throughput_engine->stats()
                                           : graph::ThroughputEngine::Stats{};
  CostModel model(inst, options);
  SequencePair current = SequencePair::random(inst.blocks.size(), rng);

  run_loop(inst, options, model, current, rng, best);

  if (options.throughput_engine != nullptr) {
    const graph::ThroughputEngine::Stats after =
        options.throughput_engine->stats();
    best.engine_incremental =
        after.incremental() - engine_before.incremental();
    best.engine_fallbacks = after.fallbacks - engine_before.fallbacks;
  }
  // One flush per run (not per move): the registry sees the aggregate at
  // hot-loop-free cost.
  AnnealMetrics& metrics = AnnealMetrics::get();
  metrics.runs.inc();
  metrics.evaluations.add(static_cast<std::uint64_t>(best.evaluations));
  metrics.accepted_moves.add(
      static_cast<std::uint64_t>(best.accepted_moves));
  metrics.throughput_evals.add(
      static_cast<std::uint64_t>(best.throughput_evals));
  metrics.run_ns.record(obs::now_ns() - run_start_ns);
  return best;
}

AnnealResult anneal_parallel(const Instance& inst,
                             const ParallelAnnealOptions& options) {
  WP_REQUIRE(options.restarts > 0, "need at least one restart");
  // A ThroughputEngine is stateful and single-threaded; a pre-set
  // base.throughput_engine would be shared by every pool worker. Refuse
  // loudly instead of racing.
  WP_REQUIRE(options.base.throughput_engine == nullptr ||
                 static_cast<bool>(options.engine_factory),
             "base.throughput_engine cannot be shared across restarts — "
             "provide engine_factory for per-restart engines");
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::shared();

  const auto restarts = static_cast<std::size_t>(options.restarts);
  std::vector<AnnealResult> results(restarts);
  pool.parallel_for(0, restarts, [&](std::size_t i) {
    AnnealOptions per_restart = options.base;
    per_restart.seed = options.base.seed + i;
    std::unique_ptr<graph::ThroughputEngine> engine;
    if (options.engine_factory) {
      // A private incremental oracle per restart: the engine's Howard
      // state and certificate are worker-local.
      engine = options.engine_factory();
      per_restart.throughput_engine = engine.get();
    }
    results[i] = anneal(inst, per_restart);
  });

  // Deterministic reduction: scan in seed order, keep strict improvements,
  // so ties resolve to the lowest seed no matter how the restarts were
  // scheduled across workers.
  std::size_t best = 0;
  for (std::size_t i = 1; i < restarts; ++i)
    if (results[i].cost < results[best].cost) best = i;
  return std::move(results[best]);
}

}  // namespace wp::fplan
