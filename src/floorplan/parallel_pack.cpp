#include "floorplan/parallel_pack.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace wp::fplan {

namespace {

/// pack/parallel/* observability. Counters are bumped from the retiring
/// (serial) thread; the prime histogram is recorded from pool workers —
/// obs instruments are atomic, so that is free of coordination.
struct ParallelMetrics {
  obs::Counter& windows;
  obs::Counter& drawn;
  obs::Counter& wasted;
  obs::Counter& commits;
  obs::Histogram& prime_ns;        ///< per-arena commit resync cost
  obs::Histogram& efficiency_pct;  ///< used/drawn per retired window

  static ParallelMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static ParallelMetrics metrics{
        registry.counter("pack/parallel/windows"),
        registry.counter("pack/parallel/candidates"),
        registry.counter("pack/parallel/wasted"),
        registry.counter("pack/parallel/commits"),
        registry.histogram("pack/parallel/prime_ns"),
        registry.histogram("pack/parallel/efficiency_pct")};
    return metrics;
  }
};

}  // namespace

/// A pool slot's private evaluation state: a BatchedMoveEvaluator synced
/// to the shared baseline (its Fenwick trees, prefix-bbox table and
/// dominance index are this thread's scratch — nothing here is ever
/// touched by two workers at once, because the candidate → arena mapping
/// is the non-overlapping grain partition of parallel_for).
struct ParallelWindowEvaluator::Arena {
  BatchedMoveEvaluator eval;

  Arena(const Instance& inst, const SequencePair& sp,
        const BatchOptions& options)
      : eval(inst, sp, options) {}
};

ParallelWindowEvaluator::ParallelWindowEvaluator(
    const Instance& inst, const SequencePair& sp, ThreadPool* pool,
    const ParallelWindowOptions& options)
    : inst_(&inst), pool_(pool), options_(options) {
  WP_REQUIRE(pool_ != nullptr, "ParallelWindowEvaluator needs a pool");
  WP_REQUIRE(inst.blocks.size() >= 2, "need at least two blocks");
  const std::size_t slots = std::max<std::size_t>(1, pool_->size());
  window_ = options_.window > 0 ? options_.window
                                : std::max<std::size_t>(2, 2 * slots);
  // One arena per pool slot; more would just multiply the resync cost a
  // commit pays without adding concurrency.
  const std::size_t arenas = std::min(slots, window_);
  arenas_.reserve(arenas);
  for (std::size_t s = 0; s < arenas; ++s)
    arenas_.push_back(std::make_unique<Arena>(inst, sp, options_.batch));
  candidates_.resize(window_);
}

ParallelWindowEvaluator::~ParallelWindowEvaluator() = default;

const Placement& ParallelWindowEvaluator::placement() const {
  return arenas_.front()->eval.placement();
}

const std::vector<SpeculativeCandidate>& ParallelWindowEvaluator::speculate(
    SequencePair& sp, Rng& rng, std::size_t k) {
  WP_REQUIRE(open_ == 0, "speculate() with a window still open");
  WP_REQUIRE(k >= 1 && k <= window_, "window size out of range");
  WP_SPAN("pack/parallel/speculate");

  // Pre-draw the whole window from the serial RNG stream. Every move is
  // drawn against the baseline pair (serial rejects undo before the next
  // draw, and moves are involutions, so apply + undo reproduces that),
  // and the acceptance uniform is drawn unconditionally with the stream
  // snapshotted on both sides — the annealer rewinds to whichever
  // position serial execution would have left (see header).
  for (std::size_t t = 0; t < k; ++t) {
    SpeculativeCandidate& cand = candidates_[t];
    cand.move = random_move(sp, rng);
    cand.rng_after_move = rng;
    cand.accept_u = rng.uniform();
    cand.rng_after_uniform = rng;
    undo_move(sp, cand.move);
  }

  // Fan the evaluations. The grain partition assigns candidate i to
  // arena i / grain deterministically and without overlap, so each arena
  // is single-threaded within the fan-out; inside one arena candidates
  // run in ascending order, each speculated and reverted against the
  // shared baseline. All outputs are pure in (baseline, move): the
  // thread count cannot change a bit of them.
  const std::size_t grain = (k + arenas_.size() - 1) / arenas_.size();
  pool_->parallel_for(
      0, k,
      [this, grain](std::size_t i) {
        Arena& arena = *arenas_[i / grain];
        SpeculativeCandidate& cand = candidates_[i];
        const Placement& candidate = arena.eval.apply(cand.move);
        cand.area = candidate.area();
        cand.wirelength =
            options_.demand_index != nullptr
                ? options_.demand_index->derive(
                      candidate, options_.delay_model, cand.rs)
                : total_wirelength(*inst_, candidate);
        arena.eval.revert();
      },
      grain);

  open_ = k;
  stats_.drawn += k;
  ParallelMetrics::get().drawn.add(k);
  return candidates_;
}

void ParallelWindowEvaluator::commit(std::size_t t) {
  WP_REQUIRE(open_ > 0, "commit() without an open window");
  WP_REQUIRE(t < open_, "commit index past the open window");
  WP_SPAN("pack/parallel/commit");
  const AppliedMove move = candidates_[t].move;
  // Re-sync every arena to the new baseline: speculate the accepted move
  // and commit it, re-priming each arena's baseline-scoped scratch. This
  // is the per-thread prime cost a commit pays for keeping the arenas
  // independent — fanned across the pool and recorded per arena.
  ParallelMetrics& metrics = ParallelMetrics::get();
  pool_->parallel_for(
      0, arenas_.size(),
      [this, &move, &metrics](std::size_t s) {
        const std::uint64_t start_ns = obs::now_ns();
        arenas_[s]->eval.apply(move);
        arenas_[s]->eval.commit();
        metrics.prime_ns.record(obs::now_ns() - start_ns);
      },
      /*grain=*/1);
  retire(t + 1, /*committed=*/true);
}

void ParallelWindowEvaluator::discard() {
  WP_REQUIRE(open_ > 0, "discard() without an open window");
  retire(open_, /*committed=*/false);
}

void ParallelWindowEvaluator::retire(std::size_t used, bool committed) {
  const std::size_t wasted = open_ - used;
  stats_.windows += 1;
  stats_.used += used;
  stats_.wasted += wasted;
  if (committed) stats_.commits += 1;
  ParallelMetrics& metrics = ParallelMetrics::get();
  metrics.windows.inc();
  metrics.wasted.add(wasted);
  if (committed) metrics.commits.inc();
  metrics.efficiency_pct.record(used * 100 / open_);
  open_ = 0;
}

}  // namespace wp::fplan
