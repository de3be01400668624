// Incremental throughput oracle for exploration hot loops — the annealer's
// per-move cost query, ensemble sample scoring, RS sweeps.
//
// The pre-engine path (graph::ThroughputEvaluator, kept as the reference
// oracle) pays per query: an O(E) reset of every relay-station count, a
// warm-started Howard policy iteration, and — the real cost — a cold
// O(V·E) Bellman–Ford probe to certify the answer. But an annealing move
// perturbs only a handful of per-connection demands, i.e. a few edge
// latencies in a structurally fixed graph, so the oracle should be
// incremental:
//
//   * the RS graph is built ONCE per instance; each demand vector is
//     applied as an in-place edge-latency delta with an undo trail
//     (labels absent from the new demand revert to base counts — the
//     evaluator's reset semantics, paid only where an edge actually
//     changes);
//   * optimality is RE-CERTIFIED LAZILY: the engine keeps the dual
//     certificate of the last solve — per-node potentials π with
//     tokens_e − λ·latency_e + π(src) − π(dst) ≥ 0 for every edge, which
//     proves no cycle beats λ. Each π(v) is a concrete path's value, so
//     re-basing the certificate at a new λ is an exact O(V) affine shift
//     (path values are linear in λ), and a query is one O(E) slack scan
//     plus a bounded Bellman–Ford repair around the violation frontier —
//     only cycles through mutated edges can change the argmin, so the
//     frontier is usually tiny;
//   * candidates are certified cheapest-first: the PREVIOUS critical
//     cycle re-costed on the mutated graph (no policy iteration at all),
//     then a few Howard sweeps warm-started from the previous optimal
//     policy. Whatever certifies first is the exact minimum.
//
// Exact-fallback equivalence contract: when no candidate certifies, the
// engine re-solves cold — bounded policy iteration, then WITNESS DESCENT:
// a full Bellman–Ford either converges (certifying the candidate and
// becoming the next queries' certificate) or surfaces a negative cycle
// whose exact ratio becomes the next, strictly lower candidate. That is
// the same certify-or-defer-to-parametric-search algorithm as
// min_cycle_ratio_howard (Lawler's bisection remains the safety net
// behind a round cap), so every returned ratio is BIT-IDENTICAL to a
// fresh min_cycle_ratio_howard() on an equivalently configured graph: a
// certified attained ratio IS the exact minimum, and distinct cycle
// ratios of these integer-token/latency graphs are rationals separated by
// far more than the solver tolerances, so both paths land on the same
// double. (That separation argument — shared with the certified solver's
// own ±1e-9 probe — assumes cycle latency sums well below ~1e6; graphs
// with near-tie cycles at larger magnitudes can quantize below the
// relative slack for any solver in this module. Placement-derived RS
// demands sit orders of magnitude inside the safe regime.) The
// differential suite (tests/test_throughput_engine.cpp) enforces the
// contract across random demand-perturbation chains, run explicitly in
// Debug and ASan/UBSan CI.
//
// Not thread-safe: one engine per worker (annealer restarts and ensemble
// samples each own one; anneal_parallel takes an engine factory).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/cycle_ratio.hpp"
#include "graph/digraph.hpp"

namespace wp::graph {

class ThroughputEngine {
 public:
  /// Query-path counters. Every query lands in exactly one of unchanged /
  /// acyclic / cycle_hits / warm_hits / fallbacks.
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t unchanged = 0;   ///< delta touched no edge
    std::uint64_t acyclic = 0;     ///< no cycle exists; constant 1.0
    std::uint64_t cycle_hits = 0;  ///< previous critical cycle re-certified
    std::uint64_t warm_hits = 0;   ///< warm policy sweeps certified
    std::uint64_t fallbacks = 0;   ///< cold certified re-solve
    std::uint64_t undos = 0;

    /// Queries resolved without a cold solve.
    std::uint64_t incremental() const {
      return unchanged + acyclic + cycle_hits + warm_hits;
    }
  };

  explicit ThroughputEngine(Digraph base);

  /// Flushes this engine's Stats into the obs registry ("graph/engine/*")
  /// — engines are per-worker and short-lived, so one flush at teardown
  /// aggregates across restarts without touching the query hot path.
  ~ThroughputEngine();

  /// Interns connection labels: the engine's id for each label, -1 for a
  /// label absent from the graph. Hot callers resolve their label list
  /// once and then query by id.
  std::vector<int> resolve(const std::vector<std::string>& labels) const;

  /// System throughput (minimum cycle ratio) with `rs[i]` relay stations
  /// on every edge of label `ids[i]` (ids from resolve(); -1 entries are
  /// ignored, duplicates: last one wins); labels not mentioned revert to
  /// the base graph's counts. Exactly equal to a fresh
  /// min_cycle_ratio_howard() on the configured graph.
  double throughput(const std::vector<int>& ids, const std::vector<int>& rs);

  /// Same, addressed by label: resolves `demand`'s labels and forwards.
  double throughput(const std::vector<std::pair<std::string, int>>& demand);

  /// Same, keyed form (the experiment driver's RsConfig::rs shape).
  double with_rs_map(const std::map<std::string, int>& rs);

  /// Reverts the edge mutations of the most recent query and restores its
  /// predecessor's cached result — one level deep, the annealer's
  /// accept/reject shape (mirrors MovePacker::revert()).
  void undo();
  bool can_undo() const { return can_undo_; }

  /// Test hook: with incremental certification off, every solving query
  /// takes the cold fallback path (demand deltas still apply in place).
  /// Results are identical either way — that is the point of the suite
  /// that flips this.
  void set_incremental(bool on) { incremental_ = on; }

  const Stats& stats() const { return stats_; }
  /// The engine's graph in its CURRENT configuration (base + last demand).
  const Digraph& graph() const { return g_; }

 private:
  int label_id(const std::string& label) const;  ///< -1 if absent
  void set_label_edges(std::size_t label, int relay_stations);
  void revert_label_to_base(std::size_t label);
  double solve();
  /// Tries to certify `lambda` as the exact minimum by repairing the held
  /// potentials; returns false (inconclusive) when the worklist budget is
  /// exhausted or no certificate is held.
  bool certify(double lambda);
  /// Rebuilds the dual certificate at `lambda` with a full Bellman–Ford
  /// from the virtual super-source (the cold-path cost, paid only on
  /// fallback). Returns empty on success (has_certificate_ set); on
  /// divergence returns a witness cycle that is negative at `lambda`,
  /// whose exact ratio drives the cold path's witness descent.
  std::vector<EdgeId> rebuild_certificate(double lambda);

  Digraph g_;
  bool cyclic_ = false;
  bool incremental_ = true;
  std::vector<int> base_rs_;  ///< per-edge counts of the base graph

  // Label interning: queries address edges by label id (resolve()).
  std::unordered_map<std::string, std::size_t> label_ids_;
  std::vector<std::vector<EdgeId>> label_edges_;
  std::vector<std::uint64_t> label_epoch_;  ///< last query touching a label
  std::vector<char> label_dirty_;  ///< any edge differs from base
  std::vector<std::size_t> dirty_labels_;
  std::vector<std::size_t> touched_scratch_;
  std::uint64_t epoch_ = 0;

  // Warm-start state and the incremental dual certificate. The previous
  // critical cycle doubles as the first candidate of every solve — its
  // edge ids stay valid because the graph's structure never changes.
  static constexpr int kWarmSweeps = 12;
  /// The cold path does not need full policy-iteration convergence — it
  /// only seeds the witness descent with a good attained ratio; the
  /// descent's certificate owns optimality.
  static constexpr int kColdSweeps = 24;
  HowardState state_;
  std::vector<EdgeId> critical_cycle_;
  /// π(v) is the Bellman–Ford distance of some super-source path P(v) at
  /// λ = cert_lambda_, i.e. tokens(P) − λ·latency(P); potential_lat_
  /// remembers latency(P), so re-basing the certificate at a different λ
  /// is the exact affine shift π − Δλ·latency instead of a repair storm.
  std::vector<double> potential_;
  std::vector<double> potential_lat_;
  double cert_lambda_ = 0.0;
  bool has_certificate_ = false;
  std::vector<NodeId> worklist_;
  std::vector<char> in_worklist_;
  std::vector<std::uint32_t> pops_;  ///< per-node pop counts of one repair

  // Cached result of the current configuration + one-deep undo trail.
  double ratio_ = 1.0;
  bool has_result_ = false;
  struct TrailEntry {
    EdgeId edge;
    int old_relay_stations;
  };
  std::vector<TrailEntry> trail_;
  std::vector<std::size_t> prev_dirty_labels_;
  double prev_ratio_ = 1.0;
  bool prev_has_result_ = false;
  bool can_undo_ = false;

  Stats stats_;
};

}  // namespace wp::graph
