// Minimum cycle ratio / minimum cycle mean solvers.
//
// Under the marked-graph semantics of latency-insensitive systems, the
// sustainable system throughput is
//
//     Th* = min over cycles C  (Σ_e∈C tokens_e) / (Σ_e∈C (1 + rs_e)),
//
// the paper's "the worst loop dominates the system" with Th = m/(m+n) per
// loop. Three solvers are provided and cross-checked by the test suite:
//
//   * exhaustive    — via Johnson enumeration; exact, small graphs only;
//   * Lawler        — parametric binary search with Bellman–Ford negative-
//                     cycle tests; O(E·V·log(1/ε)), then exact ratio
//                     recovery from the critical cycle;
//   * Howard        — certified policy iteration; fast in practice on large
//                     graphs, and the reference for graph::ThroughputEngine.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/cycles.hpp"
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

/// Exact minimum via full enumeration (throws if the graph has more than
/// `max_cycles` elementary cycles).
CycleRatioResult min_cycle_ratio_exhaustive(const Digraph& g,
                                            std::size_t max_cycles = 100000);

/// Lawler's parametric search. `epsilon` bounds the binary-search interval
/// before exact recovery from the critical cycle.
CycleRatioResult min_cycle_ratio_lawler(const Digraph& g,
                                        double epsilon = 1e-9);

/// Howard's policy-iteration algorithm from a cold default policy,
/// certified: a Bellman–Ford probe just below the answer proves no cycle
/// beats it, and a failed certificate defers to Lawler's search. This is
/// the reference the incremental graph::ThroughputEngine must match bit
/// for bit (tests/test_throughput_engine.cpp).
CycleRatioResult min_cycle_ratio_howard(const Digraph& g);

namespace detail {

/// Relaxation test shared by every Bellman–Ford-style loop in this module
/// (Lawler's negative-cycle probe, Howard's certification, the throughput
/// engine's incremental certificate): `candidate` must beat `current` by a
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

/// Bellman–Ford negative-cycle detection on weights
/// w(e) = tokens_e − λ·latency_e, starting all distances at 0 (virtual
/// super-source). Returns one negative cycle's edges, empty if none.
/// Exposed for the throughput engine's certificate rebuilds and for the
/// relaxation-tolerance regression tests.
std::vector<EdgeId> find_negative_cycle(const Digraph& g, double lambda);

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
/// answer: min_cycle_ratio_howard() probes with a cold Bellman–Ford,
/// graph::ThroughputEngine repairs an incremental dual certificate (a
/// failed certificate just demotes the answer to a fallback solve, so a
/// small budget trades hit rate, never correctness). `policy` seeds the
/// iteration when it fits the graph (rebuilt otherwise) and receives the
/// final policy. Each round costs O(V + E): one walk finds the policy
/// graph's cycles, one memoised walk along the policy determines the
/// values, one scan improves the policy. Precondition: `g` has a cycle.
CycleRatioResult howard_policy_iteration(const FlatGraph& g,
                                         std::vector<EdgeId>& policy,
                                         HowardScratch& scratch,
                                         int max_iterations = 1000);

}  // namespace detail

}  // namespace wp::graph
