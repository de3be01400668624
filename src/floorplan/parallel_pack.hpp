// Parallel speculative packing: the batched window, fanned across cores.
//
// BatchedMoveEvaluator (batch_pack.hpp) already groups candidates into
// speculation windows against one pinned baseline, but evaluates them one
// at a time on one thread. The candidates of a window are independent by
// construction — each is (baseline + one move) — which is exactly the
// shape CPU speculative execution exploits: evaluate K candidates in
// parallel, then retire them in serial order and discard everything past
// the first acceptance. ParallelWindowEvaluator does that on a
// wp::ThreadPool while keeping the repo's law intact: the accepted
// trajectory is bitwise identical to serial naive pack() at every thread
// count and every window size.
//
// Why bit-identity survives parallelism:
//
// 1. Move pre-draw. Serial annealing draws move t+1 only after rejecting
//    move t and undoing it — i.e. against the same baseline pair move t
//    was drawn against. Moves are involutions and random_move's draws
//    depend only on the block count, so the whole window's moves can be
//    pre-drawn up front (apply + undo per draw) and the draws consume the
//    exact serial RNG stream.
//
// 2. Acceptance-uniform snapshots. Serial annealing draws its Metropolis
//    uniform *conditionally* — only when delta > 0 (the accept test
//    short-circuits on delta <= 0). The evaluator therefore snapshots the
//    RNG state before and after each pre-drawn uniform; at the commit
//    point the annealer restores the snapshot serial execution would have
//    left behind (post-move for a delta <= 0 accept, post-uniform for a
//    delta > 0 accept or a full-window rejection). The stream rewinds to
//    exactly the serial position, so every later draw matches.
//
// 3. Arena evaluation. Each pool slot owns a private BatchedMoveEvaluator
//    synced to the shared baseline — per-thread Fenwick/bbox/dominance
//    scratch, no shared mutable state on the evaluation path. A
//    candidate's placement, area and wirelength are pure functions of
//    (baseline, move), and every arena inherits the batched engine's
//    bitwise-equality contract, so the values are identical no matter
//    which arena computes them. The candidate → arena mapping is the
//    deterministic grain partition of ThreadPool::parallel_for.
//
// 4. Serial retirement. The annealer scans the window's results in order,
//    completes each candidate's cost serially (the throughput oracle and
//    its memo cache are stateful and stay on the calling thread), accepts
//    the first candidate serial annealing would have accepted, commits it
//    to every arena, and discards the rest as wasted speculation. Wasted
//    candidates are the price of parallelism — counted, never observable
//    in the trajectory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "floorplan/batch_pack.hpp"
#include "floorplan/model.hpp"
#include "floorplan/sequence_pair.hpp"
#include "util/rng.hpp"

namespace wp {
class ThreadPool;
}

namespace wp::fplan {

/// Knobs for the parallel window. Every setting is trajectory-safe: it
/// moves cost across threads, never results.
struct ParallelWindowOptions {
  /// Window size K: candidates speculated per fan-out. 0 auto-scales to
  /// twice the pool width (enough speculation depth to keep every worker
  /// busy while bounding the work wasted past the commit point).
  std::size_t window = 0;
  /// Forwarded to every per-slot arena (their internal window cap etc.).
  BatchOptions batch;
  /// When set, workers derive each candidate's wirelength and per-connection
  /// RS counts through this interned index (DemandIndex::derive), so a
  /// throughput-driven anneal keeps only the stateful oracle query on the
  /// serial path. Null for pure area/wirelength runs. Non-owning; must
  /// outlive the evaluator.
  const DemandIndex* demand_index = nullptr;
  WireDelayModel delay_model;  ///< demand derivation (demand_index only)
};

/// One pre-drawn speculative candidate: the move, the RNG bookkeeping that
/// lets the annealer rewind the stream to the serial position, and the
/// worker-computed cost ingredients.
struct SpeculativeCandidate {
  AppliedMove move;
  /// RNG state after drawing the move, before the acceptance uniform —
  /// what serial execution holds when it accepts with delta <= 0.
  Rng rng_after_move{0};
  double accept_u = 0.0;  ///< pre-drawn Metropolis acceptance uniform
  /// RNG state after the acceptance uniform — what serial execution holds
  /// when it accepts with delta > 0, or after rejecting this candidate.
  Rng rng_after_uniform{0};
  // Worker-computed (pure functions of baseline + move, bitwise equal to
  // the serial evaluation):
  double area = 0.0;
  double wirelength = 0.0;
  std::vector<int> rs;  ///< per connection id; demand_index only
};

/// Fans speculative candidate evaluation across a thread pool. Usage
/// (the annealer's kParallel loop):
///
///   ParallelWindowEvaluator eval(inst, sp, &pool, options);
///   const auto& window = eval.speculate(sp, rng, k);  // fan out
///   for (t over window) { ... serial accept test ... }
///   accepted at t: apply_move(sp, window[t].move);
///                  rng = snapshot;  eval.commit(t);
///   none accepted: eval.discard();   // rng already at serial position
///
/// Calling speculate() from a worker of the same pool (nested
/// parallelism: ensemble samples, anneal_parallel restarts) degrades to
/// inline evaluation on that worker — same results, restart/sample-level
/// parallelism already owns the cores.
class ParallelWindowEvaluator {
 public:
  ParallelWindowEvaluator(const Instance& inst, const SequencePair& sp,
                          ThreadPool* pool,
                          const ParallelWindowOptions& options = {});
  ~ParallelWindowEvaluator();

  ParallelWindowEvaluator(const ParallelWindowEvaluator&) = delete;
  ParallelWindowEvaluator& operator=(const ParallelWindowEvaluator&) = delete;

  /// The committed baseline placement (bitwise equal to pack(inst, sp) of
  /// the last committed pair).
  const Placement& placement() const;

  std::size_t slots() const { return arenas_.size(); }
  /// Resolved window size K (never 0).
  std::size_t window() const { return window_; }

  /// Pre-draws up to `k` moves and acceptance uniforms from `rng` (leaving
  /// it at the all-rejected stream position) and evaluates every candidate
  /// against the committed baseline across the pool. `sp` must be the
  /// caller's baseline pair; it is perturbed and restored during the
  /// pre-draw (involutions) and returned unchanged. The returned window is
  /// valid until the next speculate()/commit()/discard().
  const std::vector<SpeculativeCandidate>& speculate(SequencePair& sp,
                                                     Rng& rng, std::size_t k);

  /// Retires the open window at candidate `t` (0-based): candidate t
  /// becomes the new baseline in every arena, candidates past t are
  /// discarded as wasted speculation. The caller applies window[t].move to
  /// its own pair and restores its RNG from the matching snapshot.
  void commit(std::size_t t);

  /// Retires the open window with no acceptance: the baseline stands and
  /// the whole window counts as used (serial would have evaluated — and
  /// rejected — every candidate).
  void discard();

  /// Wasted-speculation accounting. Deterministic in (instance, seed, K):
  /// window boundaries depend only on the accept/reject trajectory, never
  /// on the thread count, so these participate in cross-thread-count
  /// equality tests. Invariant: drawn == used + wasted, and used equals
  /// the serial iteration count retired so far.
  struct Stats {
    std::uint64_t windows = 0;  ///< speculate() calls retired
    std::uint64_t drawn = 0;    ///< candidates pre-drawn and evaluated
    std::uint64_t used = 0;     ///< candidates the serial scan consumed
    std::uint64_t wasted = 0;   ///< candidates past the commit point
    std::uint64_t commits = 0;  ///< windows retired by an acceptance
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Arena;

  void retire(std::size_t used, bool committed);

  const Instance* inst_;
  ThreadPool* pool_;
  ParallelWindowOptions options_;
  std::size_t window_ = 0;
  /// One arena per pool slot, each a private BatchedMoveEvaluator plus
  /// demand scratch, kept synced to the shared baseline.
  std::vector<std::unique_ptr<Arena>> arenas_;
  std::vector<SpeculativeCandidate> candidates_;
  std::size_t open_ = 0;  ///< candidates in the currently open window
  Stats stats_;
};

}  // namespace wp::fplan
