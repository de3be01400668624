#include "floorplan/annealer.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "floorplan/pack_engine.hpp"
#include "graph/throughput_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
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
  obs::Counter& throughput_cache_hits;
  obs::Histogram& run_ns;

  static AnnealMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static AnnealMetrics metrics{
        registry.counter("anneal/runs"),
        registry.counter("anneal/evaluations"),
        registry.counter("anneal/accepted_moves"),
        registry.counter("anneal/throughput_evals"),
        registry.counter("anneal/throughput_cache_hits"),
        registry.histogram("anneal/run_ns")};
    return metrics;
  }
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The single place the annealing objective is assembled; CostModel (the
/// search path) and placement_cost (the reporting path) must agree.
double combine_cost(const AnnealOptions& options, double area, double wl,
                    double th) {
  return options.weight_area * area + options.weight_wirelength * wl +
         options.weight_throughput * (1.0 - th);
}

/// Memo key hash over a run's per-connection RS counts.
struct RsHash {
  std::size_t operator()(const std::vector<int>& rs) const {
    return static_cast<std::size_t>(
        hash_bytes(rs.data(), rs.size() * sizeof(int)));
  }
};

/// Cost evaluator for one annealing run. A throughput-driven run interns
/// the instance's connection labels once (DemandIndex), so each candidate
/// costs one flat derive() pass for wirelength and RS demand, and the
/// oracle is addressed by connection id. Throughput values are memoized
/// by RS vector: the label list is fixed for the run, so that key is as
/// injective as a labelled one. The memo pays on small instances, where
/// few distinct demands exist (on the 5-block CPU instance hits outnumber
/// misses); on a hot 128-block scale-free anneal about 2% of candidate
/// demands repeat, and the memo costs one hash per candidate.
class CostModel {
 public:
  CostModel(const Instance& inst, const AnnealOptions& options)
      : inst_(inst), options_(options),
        use_throughput_(options.weight_throughput > 0.0) {
    if (!use_throughput_) return;
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

  double cost(const Placement& placement, AnnealResult* stats) {
    if (!use_throughput_)
      return combine_cost(options_, placement.area(),
                          total_wirelength(inst_, placement), 1.0);
    const double wirelength =
        index_->derive(placement, options_.delay_model, rs_);
    return combine_cost(options_, placement.area(), wirelength,
                        throughput(rs_, stats));
  }

 private:
  double throughput(const std::vector<int>& rs, AnnealResult* stats) {
    const auto it = cache_.find(rs);
    if (it != cache_.end()) {
      if (stats) ++stats->throughput_cache_hits;
      return it->second;
    }
    WP_SPAN("anneal/throughput");
    const auto oracle_start = Clock::now();
    double th;
    if (options_.throughput_engine != nullptr) {
      th = options_.throughput_engine->throughput(ids_, rs);
    } else {
      for (std::size_t c = 0; c < rs.size(); ++c) demand_[c].second = rs[c];
      th = options_.throughput_fn(demand_);
    }
    if (stats) stats->throughput_ms += ms_since(oracle_start);
    if (cache_.size() >= kMaxEntries) cache_.clear();
    cache_.emplace(rs, th);
    if (stats) ++stats->throughput_evals;
    return th;
  }

  static constexpr std::size_t kMaxEntries = 1 << 16;

  const Instance& inst_;
  const AnnealOptions& options_;
  const bool use_throughput_;
  std::optional<DemandIndex> index_;
  std::vector<int> rs_;   ///< cost()'s derive scratch
  std::vector<int> ids_;  ///< engine label id per connection id
  /// throughput_fn's argument: labels filled once, counts per query.
  std::vector<std::pair<std::string, int>> demand_;
  std::unordered_map<std::vector<int>, double, RsHash> cache_;
};

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
  double current_cost = model.cost(*placement, &best);

  best.sequence_pair = current;
  best.placement = *placement;
  best.cost = current_cost;

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
    const double cost = model.cost(*candidate, &best);
    ++best.evaluations;
    const double delta = cost - current_cost;
    if (delta <= 0 ||
        rng.uniform() < std::exp(-delta / std::max(temperature, 1e-12))) {
      current_cost = cost;
      ++best.accepted_moves;
      if (!naive) packer->commit();
      if (cost < best.cost) {
        best.cost = cost;
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

double placement_cost(const Instance& inst, const Placement& placement,
                      const AnnealOptions& options, double* area_out,
                      double* wl_out, double* th_out) {
  const double area = placement.area();
  const double wl = total_wirelength(inst, placement);
  double th = 1.0;
  if (options.weight_throughput > 0.0) {
    WP_REQUIRE(options.throughput_engine != nullptr ||
                   static_cast<bool>(options.throughput_fn),
               "throughput weight set but neither throughput_engine nor "
               "throughput_fn provided");
    const auto demand = rs_demand(inst, placement, options.delay_model);
    th = options.throughput_engine != nullptr
             ? options.throughput_engine->throughput(demand)
             : options.throughput_fn(demand);
  }
  if (area_out) *area_out = area;
  if (wl_out) *wl_out = wl;
  if (th_out) *th_out = th;
  return combine_cost(options, area, wl, th);
}

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

  placement_cost(inst, best.placement, options, &best.area,
                 &best.wirelength, &best.throughput);
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
  metrics.throughput_cache_hits.add(
      static_cast<std::uint64_t>(best.throughput_cache_hits));
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
      // state, mutation trail and certificate are all worker-local.
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
