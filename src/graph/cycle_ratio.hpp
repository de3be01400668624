// Minimum cycle ratio / minimum cycle mean solvers.
//
// Under the marked-graph semantics of latency-insensitive systems, the
// sustainable system throughput is
//
//     Th* = min over cycles C  (Σ_e∈C tokens_e) / (Σ_e∈C (1 + rs_e)),
//
// the paper's "the worst loop dominates the system" with Th = m/(m+n) per
// loop. The one solver is Howard's policy iteration, certified by witness
// descent (a Bellman–Ford at λ either proves no cycle beats λ or hands back
// a cycle whose exact ratio is the next, strictly lower λ); every caller
// and graph::ThroughputEngine use it. The test suite checks it against
// exhaustive Johnson enumeration on small graphs.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/digraph.hpp"

namespace wp::graph {

struct CycleRatioResult {
  /// The minimum ratio (system throughput). 1.0 when the graph is acyclic
  /// (no loop constrains the system).
  double ratio = 1.0;
  /// A critical cycle attaining the ratio (empty if acyclic).
  std::vector<EdgeId> critical_cycle;
  bool has_cycle = false;
};

/// Howard's policy-iteration algorithm from a cold default policy,
/// certified by detail::witness_descent(): the result is the exact
/// minimum, attained by the returned critical cycle. This is the reference
/// the incremental graph::ThroughputEngine must match bit for bit
/// (tests/test_throughput_engine.cpp).
CycleRatioResult min_cycle_ratio_howard(const Digraph& g);

namespace detail {

/// Relaxation test shared by every Bellman–Ford-style loop in this module
/// (witness_bellman_ford() and the throughput engine's incremental
/// certificate repair): `candidate` must beat `current` by a
/// *relative* slack. The previous absolute 1e-15 threshold let
/// large-latency graphs (λ·latency products in the millions, whose
/// rounding noise is ~1e-10) relax forever on float noise and extract
/// spurious "negative" cycles; scaling the slack to the operand magnitudes
/// treats that noise as converged while staying far below any genuine
/// ratio gap. `edge_magnitude` carries the size of the terms the edge
/// weight was computed from (|tokens| + λ·latency) — the weight itself can
/// be a tiny difference of huge products, so the distances alone
/// understate the noise floor.
inline bool relax_improves(double current, double candidate,
                           double edge_magnitude) {
  constexpr double kRelEps = 1e-12;
  const double scale =
      std::max(std::max(1.0, edge_magnitude),
               std::max(std::abs(current), std::abs(candidate)));
  return candidate < current - kRelEps * scale;
}

/// True when the graph has at least one cycle (Kahn's algorithm). Exposed
/// so the throughput engine can decide cyclicity once per instance — it is
/// a structural property, unaffected by relay-station mutations.
bool has_cycle(const Digraph& g);

/// Flat, read-mostly view of a Digraph for the cycle-ratio inner loops:
/// one 16-byte record per edge (`src`, `dst`, `tokens` and `latency` =
/// 1 + relay stations) plus an out-edge CSR. The CSR keeps
/// Digraph::out_edges() order, because Howard's policy-improvement
/// tie-breaks depend on it. The throughput engine owns one and rewrites
/// `latency` in place per query.
struct FlatGraph {
  struct Edge {
    NodeId src = -1;
    NodeId dst = -1;
    int tokens = 1;
    int latency = 1;
  };

  explicit FlatGraph(const Digraph& g);

  int num_nodes() const { return static_cast<int>(out_begin.size()) - 1; }
  int num_edges() const { return static_cast<int>(edges.size()); }
  const Edge& edge(EdgeId e) const {
    return edges[static_cast<std::size_t>(e)];
  }
  Edge& edge(EdgeId e) { return edges[static_cast<std::size_t>(e)]; }

  std::vector<Edge> edges;
  /// Out-edges of v are out[out_begin[v] .. out_begin[v + 1]).
  std::vector<int> out_begin;
  std::vector<EdgeId> out;
};

/// Exact ratio (token sum / latency sum, integer-summed) of a cycle given
/// by its edges. Exposed for the throughput engine's candidate-cycle
/// re-evaluation.
double exact_cycle_ratio(const FlatGraph& g, const std::vector<EdgeId>& cycle);

/// Working storage of howard_policy_iteration(), sized on first use and
/// reused across calls, so a sweep allocates nothing.
struct HowardScratch {
  std::vector<int> mark;
  std::vector<double> value;
  std::vector<NodeId> walk;
  std::vector<EdgeId> cycle;
  std::vector<EdgeId> best_cycle;
};

/// The core of Howard's algorithm WITHOUT the optimality certificate: runs
/// at most `max_iterations` rounds of policy iteration and returns the
/// best cycle of the final policy graph. That cycle may sit strictly above
/// the true minimum — when iteration stalls on a multi-chain policy graph,
/// or when the round budget cuts it short — so callers must certify the
/// answer: min_cycle_ratio_howard() and graph::ThroughputEngine's cold
/// path run witness_descent() on it, so a small budget costs descent
/// rounds, never correctness. `policy` seeds the iteration when it fits
/// the graph (rebuilt otherwise) and receives the final policy. Each round
/// costs O(V + E): one walk finds the policy graph's cycles, one memoised
/// walk along the policy determines the values, one scan improves the
/// policy. Precondition: `g` has a cycle.
CycleRatioResult howard_policy_iteration(const FlatGraph& g,
                                         std::vector<EdgeId>& policy,
                                         HowardScratch& scratch,
                                         int max_iterations = 1000);

/// Node potentials of a Bellman–Ford at some λ, kept by the caller so the
/// next run warm-starts from them, plus the pass loop's scratch.
/// `value[v]` = π(v) starts out as the weight tokens(P) − λ·latency(P) of
/// a concrete path P(v) from the virtual super-source (the empty path: 0),
/// and `latency[v]` as latency(P) — so re-basing at another λ is the
/// affine shift π − Δλ·latency. That holds only until an edge on P changes
/// latency (or the throughput engine repairs π at a λ other than the one
/// it is priced at); after that π(v) is just a number. The re-base is
/// therefore a warm-start heuristic: correctness rests only on a slack
/// check — a full scan, or the engine's repair seeded from the edges a
/// query raised. When every edge has slack
/// tokens_e − λ·latency_e + π(src) − π(dst) ≥ 0, π is a dual certificate:
/// no cycle has a ratio below λ.
struct Potentials {
  explicit Potentials(int num_nodes);

  /// Shifts every π(v) by −(new_lambda − lambda)·latency[v].
  void rebase(double new_lambda);

  std::vector<double> value;
  std::vector<double> latency;
  double lambda = 0.0;  ///< the λ `value` is priced at
  /// Predecessor edge of each node's last relaxation in the current run
  /// (-1: not relaxed in it); the input of predecessor_cycle().
  std::vector<EdgeId> pred;
  std::vector<int> stamp;  ///< predecessor_cycle()'s walk stamps
};

/// Relaxes `edge` at λ: lowers π(dst) to π(src) + tokens − λ·latency (and
/// records the path's latency) when that beats it beyond the tolerance.
inline bool relax(const FlatGraph::Edge& edge, double lambda, double* value,
                  double* latency) {
  const double tokens = static_cast<double>(edge.tokens);
  const double edge_latency = static_cast<double>(edge.latency);
  const double lt = lambda * edge_latency;
  const double w = tokens - lt;
  const auto s = static_cast<std::size_t>(edge.src);
  const auto d = static_cast<std::size_t>(edge.dst);
  if (!relax_improves(value[d], value[s] + w, std::abs(tokens) + lt))
    return false;
  value[d] = value[s] + w;
  latency[d] = latency[s] + edge_latency;
  return true;
}

/// Walks the predecessor chain behind `start` (potentials.pred), stamping
/// each node with `id` (no node may carry that stamp yet), and cuts out
/// the first cycle the chain closes into `cycle` (its storage reused);
/// `cycle` is left empty, and false returned, when the chain ends first.
/// When every predecessor edge was set by a strict (beyond-tolerance)
/// relaxation at one λ, that cycle is negative at λ: its exact ratio lies
/// strictly below λ. Shared by witness_bellman_ford() and the throughput
/// engine's certificate repair.
bool predecessor_cycle(const FlatGraph& g, Potentials& potentials,
                       NodeId start, int id, std::vector<EdgeId>& cycle);

/// Whole-graph Bellman–Ford at λ on weights tokens_e − λ·latency_e,
/// warm-started from `potentials` re-based at λ and clamped to the empty
/// path's 0. Returns empty when a pass relaxes nothing: the potentials
/// then certify λ. Otherwise returns a witness — predecessor_cycle() of
/// a pass's last relaxation, negative at λ. That chain is walked after
/// each pass (O(V)), so divergence shows after about a diameter's worth
/// of passes; a relaxing (n+1)-th pass always closes such a chain into a
/// cycle.
std::vector<EdgeId> witness_bellman_ford(const FlatGraph& g, double lambda,
                                         Potentials& potentials);

/// Witness descent: turns `result` — a cycle and its exact ratio, e.g.
/// howard_policy_iteration()'s answer — into the certified minimum. Runs
/// witness_bellman_ford() at λ = result.ratio; on divergence λ jumps to
/// the witness's exact ratio, strictly lower, and the search repeats. A
/// graph has finitely many cycle ratios, so it ends, and a certified
/// attained ratio IS the exact minimum. On return `potentials` certify
/// result.ratio. Precondition: `g` has a cycle.
void witness_descent(const FlatGraph& g, CycleRatioResult& result,
                     Potentials& potentials);

}  // namespace detail

}  // namespace wp::graph
