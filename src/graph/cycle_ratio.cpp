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

std::vector<EdgeId> find_negative_cycle(const Digraph& g, double lambda) {
  const int n = g.num_nodes();
  if (n == 0) return {};
  std::vector<double> dist(static_cast<std::size_t>(n), 0.0);
  std::vector<EdgeId> pred_edge(static_cast<std::size_t>(n), -1);

  EdgeId last_relaxed = -1;
  for (int pass = 0; pass < n; ++pass) {
    last_relaxed = -1;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& ed = g.edge(e);
      const double tokens = static_cast<double>(ed.tokens);
      const double lt = lambda * static_cast<double>(g.edge_latency(e));
      const double w = tokens - lt;
      const auto s = static_cast<std::size_t>(ed.src);
      const auto d = static_cast<std::size_t>(ed.dst);
      if (relax_improves(dist[d], dist[s] + w, std::abs(tokens) + lt)) {
        dist[d] = dist[s] + w;
        pred_edge[d] = e;
        last_relaxed = e;
      }
    }
    if (last_relaxed == -1) return {};  // converged, no negative cycle
  }

  // A relaxation happened on the n-th pass: walk predecessors from the
  // relaxed edge's head to land inside the negative cycle, then extract it.
  NodeId v = g.edge(last_relaxed).dst;
  for (int i = 0; i < n; ++i) v = g.edge(pred_edge[static_cast<std::size_t>(v)]).src;

  std::vector<EdgeId> cycle;
  NodeId u = v;
  do {
    const EdgeId e = pred_edge[static_cast<std::size_t>(u)];
    WP_CHECK(e >= 0, "broken predecessor chain");
    cycle.push_back(e);
    u = g.edge(e).src;
  } while (u != v);
  std::reverse(cycle.begin(), cycle.end());
  return cycle;
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

bool has_any_cycle(const Digraph& g) { return detail::has_cycle(g); }

using detail::find_negative_cycle;

}  // namespace

CycleRatioResult min_cycle_ratio_exhaustive(const Digraph& g,
                                            std::size_t max_cycles) {
  CycleRatioResult result;
  const auto cycles = enumerate_cycles(g, max_cycles);
  for (const auto& c : cycles) {
    const double r = c.throughput();
    if (!result.has_cycle || r < result.ratio) {
      result.ratio = r;
      result.critical_cycle = c.edges;
      result.has_cycle = true;
    }
  }
  return result;
}

CycleRatioResult min_cycle_ratio_lawler(const Digraph& g, double epsilon) {
  WP_REQUIRE(epsilon > 0, "epsilon must be positive");
  CycleRatioResult result;
  if (!has_any_cycle(g)) return result;

  result.has_cycle = true;
  const detail::FlatGraph flat(g);
  // Ratio lies in [0, max tokens/latency]; with unit tokens it is within
  // [0, 1], but keep the general bound.
  double lo = 0.0;
  double hi = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    hi = std::max(hi, static_cast<double>(g.edge(e).tokens));
  hi = std::max(hi, 1.0);

  // Invariant: some cycle has ratio < hi + ε; no cycle has ratio < lo.
  std::vector<EdgeId> witness;
  while (hi - lo > epsilon) {
    const double mid = 0.5 * (lo + hi);
    auto cycle = find_negative_cycle(g, mid);
    if (!cycle.empty()) {
      witness = std::move(cycle);
      // Jump straight to the witness's ratio.
      hi = detail::exact_cycle_ratio(flat, witness);
    } else {
      lo = mid;
    }
  }
  if (witness.empty()) {
    // No cycle ever tested negative: every cycle has ratio >= hi; since
    // tokens/latency <= hi for all edges, the min equals hi only when a
    // cycle attains it. Fall back to a slightly relaxed probe.
    witness = find_negative_cycle(g, hi + 10 * epsilon);
    WP_CHECK(!witness.empty(), "Lawler search failed to find a witness");
  }
  result.critical_cycle = std::move(witness);
  result.ratio = detail::exact_cycle_ratio(flat, result.critical_cycle);
  return result;
}

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
  // because every caller certifies the answer (and falls back to the
  // parametric search when certification fails).
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

}  // namespace detail

CycleRatioResult min_cycle_ratio_howard(const Digraph& g) {
  const int n = g.num_nodes();
  if (n == 0 || !has_any_cycle(g)) return {};

  const detail::FlatGraph flat(g);
  std::vector<EdgeId> policy;
  detail::HowardScratch scratch;
  const CycleRatioResult result =
      detail::howard_policy_iteration(flat, policy, scratch);

  // Certify optimality: no cycle may have a strictly smaller ratio. Policy
  // iteration with a single global ratio can stall on multi-chain policy
  // graphs; when the certificate fails, defer to the parametric search.
  if (!find_negative_cycle(g, result.ratio - 1e-9).empty())
    return min_cycle_ratio_lawler(g);
  return result;
}

}  // namespace wp::graph
