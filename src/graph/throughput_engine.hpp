// Incremental throughput oracle for exploration hot loops — the annealer's
// per-move cost query, ensemble sample scoring, RS sweeps.
//
// The reference path — a fresh min_cycle_ratio_howard() on a configured
// copy of the graph — pays per query: a graph copy with every
// relay-station count set, a cold Howard policy iteration, and — the real
// cost — a cold O(V·E) Bellman–Ford probe to certify the answer. But an
// annealing move perturbs only a handful of per-connection demands, i.e. a
// few edge latencies in a structurally fixed graph, so the oracle should
// be incremental:
//
//   * the RS graph is flattened ONCE per instance into a
//     detail::FlatGraph (16-byte src/dst/tokens/latency edge records plus
//     an out-edge CSR in Digraph order); certification and Howard read
//     only those arrays, never the string-carrying Digraph records;
//   * each demand vector is applied as a DIFF: a label→edge CSR plus the
//     last-applied count per label, so a label whose count did not move
//     costs one int compare and only moved labels rewrite their edges'
//     latencies in place. Labels absent from the new demand revert to
//     base counts (the reference's configured-copy semantics) in one
//     compaction pass over the dirty-label list, skipped when the demand
//     names every dirty label;
//   * a caller that already knows which of its counts moved since its own
//     previous query sends only those (the DELTA query): the same apply
//     core then touches just the named labels, with no compare per
//     unchanged label and no revert pass. The annealer scores every
//     throughput-driven candidate this way — a BA-128 candidate moves ~61
//     of its 342 connections — and gets the dense query's exact answer
//     and query-path counts;
//   * optimality is RE-CERTIFIED LAZILY: the engine keeps a dual
//     certificate — per-node potentials π with
//     tokens_e − λ·latency_e + π(src) − π(dst) ≥ 0 for every edge, which
//     proves no cycle beats λ — and the λ it was last proven at. A query
//     at a λ no higher than that proven λ needs no re-base and no scan:
//     an unchanged or shortened edge keeps slack ≥ 0 at any lower λ, so a
//     Bellman–Ford repair seeded from the edges the query RAISED decides
//     it (the repair re-checks the out-edges of every node it lowers).
//     Any other λ re-bases π by the affine shift along its remembered path
//     latencies (a warm-start heuristic) and scans all E edges before the
//     repair. Only cycles through mutated edges can change the argmin, so
//     the repair frontier is usually tiny;
//   * candidates descend from the PREVIOUS critical cycle, re-costed on
//     the mutated graph (no policy iteration at all). The repair records
//     each relaxation's edge, and a node it pops again walks that
//     predecessor chain (detail::predecessor_cycle, the walk
//     witness_bellman_ford runs): a chain that closes is a cycle negative
//     at the candidate λ, so the repair gives up at once and that cycle's
//     exact ratio, strictly lower, is the next candidate. A per-node pop
//     cap and a relaxation budget stop a repair whose chains never close.
//     Whatever certifies first is the exact minimum; only a repair that
//     gives up without a witness goes cold.
//
// Equivalence contract: when no candidate certifies, the engine re-solves
// cold with the certified solver's own algorithm — bounded policy
// iteration, then detail::witness_descent: a full Bellman–Ford either
// converges (certifying the candidate and becoming the next queries'
// certificate) or surfaces a negative cycle whose exact ratio becomes the
// next, strictly lower candidate. min_cycle_ratio_howard runs the same
// descent, so every returned ratio is BIT-IDENTICAL to a fresh
// min_cycle_ratio_howard() on an equivalently configured graph: a
// certified attained ratio IS the exact minimum, and distinct cycle
// ratios of these integer-token/latency graphs are rationals separated by
// far more than the solver tolerance, so both paths land on the same
// double. (That separation argument assumes cycle latency sums well below
// ~1e6; graphs with near-tie cycles at larger magnitudes can quantize
// below the relative slack for any solver in this module. Placement-
// derived RS demands sit orders of magnitude inside the safe regime.) The
// differential suite (tests/test_throughput_engine.cpp) enforces the
// contract across random demand-perturbation chains, run explicitly in
// Debug and ASan/UBSan CI. The engine and the reference share the Howard
// core and the witness descent, so tests/test_graph.cpp checks those
// directly against exhaustive enumeration, and the engine suite pins its
// per-request query-path counts.
//
// The base Digraph is kept only for labels and graph(), which returns a
// configured COPY (the current counts live in the flat latencies).
//
// Not thread-safe: one engine per worker (annealer restarts and ensemble
// samples each build their own inside the parallel_for body).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/cycle_ratio.hpp"
#include "graph/digraph.hpp"

namespace wp::graph {

class ThroughputEngine {
 public:
  /// Query-path counters. Every query lands in exactly one of unchanged /
  /// acyclic / cycle_hits / witness_hits / fallbacks.
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t unchanged = 0;     ///< delta touched no edge
    std::uint64_t acyclic = 0;       ///< no cycle exists; constant 1.0
    std::uint64_t cycle_hits = 0;    ///< previous critical cycle certified
    std::uint64_t witness_hits = 0;  ///< a failed repair's witness certified
    std::uint64_t fallbacks = 0;     ///< cold certified re-solve

    /// Queries resolved without a cold solve.
    std::uint64_t incremental() const {
      return unchanged + acyclic + cycle_hits + witness_hits;
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
  /// min_cycle_ratio_howard() on the configured graph. Requires one count
  /// per id, every id below the number of labels and every count in
  /// [0, INT_MAX) — the range where the edge latency 1 + rs is positive
  /// and representable; a rejected query changes nothing.
  double throughput(const std::vector<int>& ids, const std::vector<int>& rs);

  /// Same, addressed by label: resolves `demand`'s labels and forwards.
  double throughput(const std::vector<std::pair<std::string, int>>& demand);

  /// Delta query: the demand of the caller's previous query with, for each
  /// of the `num_changed` positions i in `changed`, `rs[i]` relay stations
  /// on every edge of label `ids[i]` (-1 ids ignored). `ids` must name
  /// each label at most once, as resolve() of distinct labels does. The
  /// answer equals the dense query of the updated demand; positions in
  /// ascending order also rewrite edges in the dense query's order, so
  /// the query takes the same path. Only the named entries are validated.
  /// `queries_seen` is stats().queries as the caller read it right after
  /// its previous query: a query in between may have moved labels, so a
  /// mismatch is rejected. A rejected query changes nothing.
  double throughput(const std::vector<int>& ids, const std::vector<int>& rs,
                    const int* changed, std::size_t num_changed,
                    std::uint64_t queries_seen);

  const Stats& stats() const { return stats_; }
  /// A copy of the engine's graph in its CURRENT configuration (base +
  /// last demand).
  Digraph graph() const;

 private:
  const std::string& label_of(EdgeId e) const;
  const std::string& label_name(std::size_t label) const;  ///< by label id
  int label_id(const std::string& label) const;  ///< -1 if absent
  /// Opens a query: counts it and clears the per-query apply state.
  void begin_query();
  /// The one apply core: gives every edge of `label` the count `rs`
  /// (edges rewritten only when the count moved) and enlists the label as
  /// dirty.
  void apply(std::size_t label, int rs);
  /// Sets every edge of `label` to latency `latency`; flags changed_ if any
  /// edge moved.
  void set_label_latency(std::size_t label, int latency);
  void revert_label_to_base(std::size_t label);
  /// Closes a query: the cached ratio when no edge moved, else solve().
  double finish_query();
  double solve();
  /// Tries to certify `lambda` as the exact minimum by repairing the held
  /// potentials. Returns false when the repair gives up; witness_ then
  /// holds a cycle with a ratio strictly below `lambda`, or nothing.
  bool certify(double lambda);

  /// The base graph: labels and resolve(). Its
  /// relay-station counts never change; the current configuration lives in
  /// the latencies of flat_.
  Digraph base_;
  detail::FlatGraph flat_;
  bool cyclic_ = false;
  std::vector<int> base_latency_;  ///< per-edge latency of the base graph

  // Label interning: queries address edges by label id (resolve()). Ids
  // follow sorted label order; the edges of label l are
  // label_edges_[label_begin_[l] .. label_begin_[l+1]), in edge-id order.
  static constexpr int kBase = -1;  ///< label_rs_: edges at base counts
  std::vector<int> label_begin_;
  std::vector<EdgeId> label_edges_;
  /// Count last applied to every edge of a label, kBase when the label's
  /// edges hold their base counts. A query repeating a label's count costs
  /// one compare.
  std::vector<int> label_rs_;
  std::vector<std::uint64_t> label_epoch_;  ///< last query naming a label
  std::vector<std::size_t> dirty_labels_;   ///< labels with label_rs_ != kBase
  std::uint64_t epoch_ = 0;

  // Cold-path state and the incremental dual certificate. The previous
  // critical cycle is the first candidate of every solve — its edge ids
  // stay valid because the graph's structure never changes.
  /// The cold path does not need full policy-iteration convergence — it
  /// only seeds the witness descent with a good attained ratio; the
  /// descent's certificate owns optimality.
  static constexpr int kColdSweeps = 24;
  /// Per-node chosen out-edge of the last cold policy iteration (-1 =
  /// none); seeds the next one.
  std::vector<EdgeId> policy_;
  detail::HowardScratch howard_;
  std::vector<EdgeId> critical_cycle_;
  /// The dual certificate and the repair's predecessor edges. certify()
  /// re-bases it at a new λ as a warm start, and the cold path's witness
  /// descent warm-starts from it.
  detail::Potentials potentials_;
  /// The λ at which potentials_ were last proven feasible (a successful
  /// certify or a cold solve); empty once a repair gives up.
  std::optional<double> proven_lambda_;
  /// Edges whose latency the current query raised: the only edges that can
  /// violate a certificate proven at a λ no lower than the candidate.
  std::vector<EdgeId> raised_;
  std::vector<EdgeId> witness_;  ///< the last failed repair's witness cycle
  std::vector<NodeId> worklist_;
  std::vector<char> in_worklist_;
  std::vector<std::uint32_t> pops_;  ///< per-node pop counts of one repair

  // Cached result of the current configuration; changed_ records whether
  // the current query moved any edge off it.
  double ratio_ = 1.0;
  bool has_result_ = false;
  bool changed_ = false;

  Stats stats_;
};

}  // namespace wp::graph
