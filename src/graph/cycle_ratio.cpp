#include "graph/cycle_ratio.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace wp::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

namespace detail {

FlatGraph::FlatGraph(const Digraph& g) {
  const auto num_edges = static_cast<std::size_t>(g.num_edges());
  edges.reserve(num_edges);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const EdgeData& ed = g.edge(e);
    edges.push_back({ed.src, ed.dst, ed.tokens, g.edge_latency(e)});
  }
  out_begin.reserve(static_cast<std::size_t>(g.num_nodes()) + 1);
  out.reserve(num_edges);
  out_begin.push_back(0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const EdgeId e : g.out_edges(v)) out.push_back(e);
    out_begin.push_back(static_cast<int>(out.size()));
  }
}

double exact_cycle_ratio(const FlatGraph& g, const std::vector<EdgeId>& cycle) {
  long long tokens = 0;
  long long latency = 0;
  for (const EdgeId e : cycle) {
    tokens += g.edge(e).tokens;
    latency += g.edge(e).latency;
  }
  WP_CHECK(latency > 0, "cycle with zero latency");
  return static_cast<double>(tokens) / static_cast<double>(latency);
}

bool has_cycle(const Digraph& g) {
  // Kahn's algorithm: the graph has a cycle iff topological sort is partial.
  const int n = g.num_nodes();
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    ++indegree[static_cast<std::size_t>(g.edge(e).dst)];
  std::vector<NodeId> queue;
  for (NodeId v = 0; v < n; ++v)
    if (indegree[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
  int removed = 0;
  while (!queue.empty()) {
    const NodeId v = queue.back();
    queue.pop_back();
    ++removed;
    for (EdgeId e : g.out_edges(v)) {
      const NodeId w = g.edge(e).dst;
      if (--indegree[static_cast<std::size_t>(w)] == 0) queue.push_back(w);
    }
  }
  return removed != n;
}

}  // namespace detail

namespace {

/// True when `policy` is a structurally valid policy vector for `g`: one
/// out-edge of each node that has any, -1 elsewhere. A policy that no
/// longer fits is rebuilt, so a stale one only costs iterations.
bool policy_fits(const detail::FlatGraph& g,
                 const std::vector<EdgeId>& policy) {
  const int n = g.num_nodes();
  if (static_cast<int>(policy.size()) != n) return false;
  for (NodeId v = 0; v < n; ++v) {
    const auto i = static_cast<std::size_t>(v);
    const EdgeId e = policy[i];
    if (g.out_begin[i] == g.out_begin[i + 1]) {
      if (e != -1) return false;
    } else {
      if (e < 0 || e >= g.num_edges() || g.edge(e).src != v) return false;
    }
  }
  return true;
}

/// Each node's first out-edge (Digraph::out_edges() order), -1 for a node
/// without successors.
void default_policy(const detail::FlatGraph& g, std::vector<EdgeId>& policy) {
  policy.assign(static_cast<std::size_t>(g.num_nodes()), -1);
  for (std::size_t v = 0; v < policy.size(); ++v)
    if (g.out_begin[v] != g.out_begin[v + 1])
      policy[v] = g.out[static_cast<std::size_t>(g.out_begin[v])];
}

}  // namespace

namespace detail {

CycleRatioResult howard_policy_iteration(const FlatGraph& g,
                                         std::vector<EdgeId>& policy,
                                         HowardScratch& scratch,
                                         int max_iterations) {
  CycleRatioResult result;
  const int n = g.num_nodes();
  result.has_cycle = true;

  // Nodes without successors cannot lie on a cycle and take value +inf.
  bool warm_started = policy_fits(g, policy);
  if (!warm_started) default_policy(g, policy);

  auto edge_cost = [&g](EdgeId e) {
    return static_cast<double>(g.edge(e).tokens);
  };
  auto edge_time = [&g](EdgeId e) {
    return static_cast<double>(g.edge(e).latency);
  };
  auto next = [&g, &policy](NodeId v) {
    return g.edge(policy[static_cast<std::size_t>(v)]).dst;
  };

  std::vector<int>& mark = scratch.mark;
  std::vector<double>& value = scratch.value;
  std::vector<NodeId>& walk = scratch.walk;
  std::vector<EdgeId>& cycle = scratch.cycle;
  std::vector<EdgeId>& best_cycle = scratch.best_cycle;
  mark.resize(static_cast<std::size_t>(n));
  value.resize(static_cast<std::size_t>(n));
  double best_ratio = kInf;

  // Convergence guard: on dense graphs the improvement scan keeps flipping
  // the policy between equal-value alternatives — `improved` stays true
  // while the policy min-ratio has long stopped moving (observed: the
  // correct ratio by round ~4, churn until the round cap). Stop once the
  // ratio has been flat for several rounds; exactness is unaffected
  // because every caller certifies the answer (witness descent).
  constexpr int kStallRounds = 5;
  double last_ratio = kInf;
  int stalled = 0;

  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    // 1. Find the minimum-ratio cycle of the current policy graph: follow
    //    the policy from each unvisited node until a repeat.
    std::fill(mark.begin(), mark.end(), -1);
    best_ratio = kInf;
    best_cycle.clear();
    for (NodeId start = 0; start < n; ++start) {
      if (mark[static_cast<std::size_t>(start)] != -1 ||
          policy[static_cast<std::size_t>(start)] < 0)
        continue;
      NodeId v = start;
      while (mark[static_cast<std::size_t>(v)] == -1 &&
             policy[static_cast<std::size_t>(v)] >= 0) {
        mark[static_cast<std::size_t>(v)] = start;
        v = next(v);
      }
      if (policy[static_cast<std::size_t>(v)] >= 0 &&
          mark[static_cast<std::size_t>(v)] == start) {
        // Found a fresh policy cycle starting at v.
        cycle.clear();
        double cost = 0.0, time = 0.0;
        NodeId u = v;
        do {
          const EdgeId e = policy[static_cast<std::size_t>(u)];
          cycle.push_back(e);
          cost += edge_cost(e);
          time += edge_time(e);
          u = g.edge(e).dst;
        } while (u != v);
        const double r = cost / time;
        if (r < best_ratio) {
          best_ratio = r;
          best_cycle.swap(cycle);
        }
      }
    }
    if (best_ratio == kInf && warm_started) {
      // A stale warm policy can route every chain into a dead end even
      // though the graph has cycles; rebuild from scratch and retry.
      warm_started = false;
      default_policy(g, policy);
      --iteration;
      continue;
    }
    WP_CHECK(best_ratio < kInf, "Howard: policy graph has no cycle");

    // 2. Value determination: value(v) = cost − r·time + value(next) along
    //    the policy, anchored at 0 on the critical cycle's nodes. Each
    //    value is a fixed function of its successor's, so one memoised walk
    //    per unsettled node settles every node in O(V). Nodes that cannot
    //    reach the critical cycle (dead ends, other policy cycles) keep
    //    +inf and never drive an improvement below.
    constexpr int kOpen = 0, kOnWalk = 1, kSettled = 2;
    std::fill(value.begin(), value.end(), kInf);
    for (NodeId v = 0; v < n; ++v)
      mark[static_cast<std::size_t>(v)] =
          policy[static_cast<std::size_t>(v)] < 0 ? kSettled : kOpen;
    for (const EdgeId e : best_cycle) {
      const auto v = static_cast<std::size_t>(g.edge(e).src);
      value[v] = 0.0;
      mark[v] = kSettled;
    }
    for (NodeId start = 0; start < n; ++start) {
      if (mark[static_cast<std::size_t>(start)] != kOpen) continue;
      walk.clear();
      NodeId v = start;
      while (mark[static_cast<std::size_t>(v)] == kOpen) {
        mark[static_cast<std::size_t>(v)] = kOnWalk;
        walk.push_back(v);
        v = next(v);
      }
      // The walk closed on itself (a non-critical policy cycle) or ran
      // into a settled node; unwind it back to front, each node's value
      // from its successor's (the node after it on the walk, or v).
      const bool reaches = mark[static_cast<std::size_t>(v)] == kSettled &&
                           value[static_cast<std::size_t>(v)] != kInf;
      double next_value = value[static_cast<std::size_t>(v)];
      for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
        const auto w = static_cast<std::size_t>(*it);
        mark[w] = kSettled;
        if (!reaches) continue;
        const EdgeId e = policy[w];
        value[w] = edge_cost(e) - best_ratio * edge_time(e) + next_value;
        next_value = value[w];
      }
    }

    // 3. Policy improvement.
    bool improved = false;
    for (NodeId v = 0; v < n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      for (int k = g.out_begin[i]; k < g.out_begin[i + 1]; ++k) {
        const EdgeId e = g.out[static_cast<std::size_t>(k)];
        const auto dst = static_cast<std::size_t>(g.edge(e).dst);
        if (value[dst] == kInf) continue;
        const double candidate =
            edge_cost(e) - best_ratio * edge_time(e) + value[dst];
        if (candidate < value[i] - 1e-9) {
          policy[i] = e;
          value[i] = candidate;
          improved = true;
        }
      }
    }
    if (!improved) break;
    if (best_ratio >=
        last_ratio - 1e-12 * std::max(1.0, std::abs(last_ratio))) {
      if (++stalled >= kStallRounds) break;
    } else {
      stalled = 0;
    }
    last_ratio = best_ratio;
  }

  result.ratio = exact_cycle_ratio(g, best_cycle);
  result.critical_cycle = best_cycle;
  return result;
}

Potentials::Potentials(int num_nodes)
    : value(static_cast<std::size_t>(num_nodes), 0.0),
      latency(static_cast<std::size_t>(num_nodes), 0.0),
      pred(static_cast<std::size_t>(num_nodes), -1),
      stamp(static_cast<std::size_t>(num_nodes), -1) {}

void Potentials::rebase(double new_lambda) {
  if (new_lambda == lambda) return;
  const double delta = new_lambda - lambda;
  for (std::size_t v = 0; v < value.size(); ++v)
    value[v] -= delta * latency[v];
  lambda = new_lambda;
}

bool predecessor_cycle(const FlatGraph& g, Potentials& potentials,
                       NodeId start, int id, std::vector<EdgeId>& cycle) {
  cycle.clear();
  const std::vector<EdgeId>& pred = potentials.pred;
  std::vector<int>& stamp = potentials.stamp;
  NodeId v = start;
  while (v >= 0 && pred[static_cast<std::size_t>(v)] >= 0) {
    if (stamp[static_cast<std::size_t>(v)] == id) {
      NodeId u = v;
      do {
        const EdgeId e = pred[static_cast<std::size_t>(u)];
        cycle.push_back(e);
        u = g.edge(e).src;
      } while (u != v);
      std::reverse(cycle.begin(), cycle.end());
      return true;
    }
    stamp[static_cast<std::size_t>(v)] = id;
    v = g.edge(pred[static_cast<std::size_t>(v)]).src;
  }
  return false;
}

std::vector<EdgeId> witness_bellman_ford(const FlatGraph& g, double lambda,
                                         Potentials& potentials) {
  // Warm start: the held π re-based at λ and clamped to the empty path's
  // 0 — usually a handful of passes from feasibility instead of a
  // from-scratch solve.
  potentials.rebase(lambda);
  double* const value = potentials.value.data();
  double* const latency = potentials.latency.data();
  for (std::size_t v = 0; v < potentials.value.size(); ++v) {
    if (value[v] > 0.0) {
      value[v] = 0.0;
      latency[v] = 0.0;
    }
  }
  const int n = g.num_nodes();
  std::vector<EdgeId>& pred = potentials.pred;
  pred.assign(static_cast<std::size_t>(n), -1);
  potentials.stamp.assign(static_cast<std::size_t>(n), -1);

  for (int pass = 0; pass <= n; ++pass) {
    EdgeId last_relaxed = -1;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (relax(g.edge(e), lambda, value, latency)) {
        pred[static_cast<std::size_t>(g.edge(e).dst)] = e;
        last_relaxed = e;
      }
    }
    if (last_relaxed == -1) return {};  // converged: π certifies λ
    // Every relaxation is a strict improvement, so a cycle in the
    // predecessor graph is a negative cycle.
    std::vector<EdgeId> witness;
    if (predecessor_cycle(g, potentials, g.edge(last_relaxed).dst, pass,
                          witness))
      return witness;
    // A node relaxed in pass k hangs off a predecessor relaxed in pass
    // k − 1 or later, so the chain behind a pass-n relaxation spans n + 1
    // relaxed nodes — more than the graph has: it must close a cycle.
    WP_CHECK(pass < n, "divergent Bellman-Ford pass without a witness cycle");
  }
  return {};  // unreachable: the last pass converges or yields a witness
}

void witness_descent(const FlatGraph& g, CycleRatioResult& result,
                     Potentials& potentials) {
  for (;;) {
    std::vector<EdgeId> witness =
        witness_bellman_ford(g, result.ratio, potentials);
    if (witness.empty()) return;
    const double lower = exact_cycle_ratio(g, witness);
    WP_CHECK(lower < result.ratio, "witness cycle does not beat the candidate");
    result.ratio = lower;
    result.critical_cycle = std::move(witness);
  }
}

}  // namespace detail

CycleRatioResult min_cycle_ratio_howard(const Digraph& g) {
  if (!detail::has_cycle(g)) return {};

  const detail::FlatGraph flat(g);
  std::vector<EdgeId> policy;
  detail::HowardScratch scratch;
  CycleRatioResult result =
      detail::howard_policy_iteration(flat, policy, scratch);
  // Policy iteration with a single global ratio can stall above the
  // minimum on multi-chain policy graphs; the descent certifies or
  // corrects it.
  detail::Potentials potentials(flat.num_nodes());
  detail::witness_descent(flat, result, potentials);
  return result;
}

}  // namespace wp::graph
