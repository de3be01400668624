#include "graph/throughput_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace wp::graph {

namespace {

/// Obs mirror of ThroughputEngine::Stats, flushed once per engine at
/// destruction (engines are per-worker; the query path stays atomic-free).
struct EngineMetrics {
  obs::Counter& queries;
  obs::Counter& unchanged;
  obs::Counter& acyclic;
  obs::Counter& cycle_hits;
  obs::Counter& warm_hits;
  obs::Counter& fallbacks;

  static EngineMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static EngineMetrics metrics{
        registry.counter("graph/engine/queries"),
        registry.counter("graph/engine/unchanged"),
        registry.counter("graph/engine/acyclic"),
        registry.counter("graph/engine/cycle_hits"),
        registry.counter("graph/engine/warm_hits"),
        registry.counter("graph/engine/fallbacks")};
    return metrics;
  }
};

/// Relaxes `edge` at λ: lowers π(dst) to π(src) + tokens − λ·latency (and
/// records the path's latency) when that beats it beyond the tolerance.
inline bool relax(const detail::FlatGraph::Edge& edge, double lambda,
                  double* potential, double* potential_lat) {
  const double tokens = static_cast<double>(edge.tokens);
  const double latency = static_cast<double>(edge.latency);
  const double lt = lambda * latency;
  const double w = tokens - lt;
  const auto s = static_cast<std::size_t>(edge.src);
  const auto d = static_cast<std::size_t>(edge.dst);
  if (!detail::relax_improves(potential[d], potential[s] + w,
                              std::abs(tokens) + lt))
    return false;
  potential[d] = potential[s] + w;
  potential_lat[d] = potential_lat[s] + latency;
  return true;
}

}  // namespace

ThroughputEngine::~ThroughputEngine() {
  EngineMetrics& metrics = EngineMetrics::get();
  metrics.queries.add(stats_.queries);
  metrics.unchanged.add(stats_.unchanged);
  metrics.acyclic.add(stats_.acyclic);
  metrics.cycle_hits.add(stats_.cycle_hits);
  metrics.warm_hits.add(stats_.warm_hits);
  metrics.fallbacks.add(stats_.fallbacks);
}

ThroughputEngine::ThroughputEngine(Digraph base)
    : base_(std::move(base)), flat_(base_) {
  // Label CSR: labels numbered by first appearance, each label's edges in
  // edge-id order.
  const auto num_edges = static_cast<std::size_t>(base_.num_edges());
  std::vector<std::size_t> edge_label(num_edges);
  for (std::size_t e = 0; e < num_edges; ++e)
    edge_label[e] = label_ids_
                        .emplace(base_.edge(static_cast<EdgeId>(e)).label,
                                 label_ids_.size())
                        .first->second;
  const std::size_t num_labels = label_ids_.size();
  label_begin_.assign(num_labels + 1, 0);
  for (const std::size_t label : edge_label) ++label_begin_[label + 1];
  for (std::size_t l = 0; l < num_labels; ++l)
    label_begin_[l + 1] += label_begin_[l];
  label_edges_.resize(num_edges);
  std::vector<int> fill(label_begin_.begin(), label_begin_.end() - 1);
  for (std::size_t e = 0; e < num_edges; ++e)
    label_edges_[static_cast<std::size_t>(fill[edge_label[e]]++)] =
        static_cast<EdgeId>(e);
  base_latency_.reserve(num_edges);
  for (const detail::FlatGraph::Edge& edge : flat_.edges)
    base_latency_.push_back(edge.latency);
  label_rs_.assign(num_labels, kBase);
  label_epoch_.assign(num_labels, 0);

  const auto num_nodes = static_cast<std::size_t>(base_.num_nodes());
  potential_.assign(num_nodes, 0.0);
  potential_lat_.assign(num_nodes, 0.0);
  in_worklist_.assign(num_nodes, 0);
  pops_.assign(num_nodes, 0);
  pred_.assign(num_nodes, -1);
  stamp_.assign(num_nodes, -1);
  // Cyclicity is structural — relay-station mutations cannot change it, so
  // acyclic instances answer every query as a constant 1.0 (exactly the
  // fresh solver's acyclic result).
  cyclic_ = detail::has_cycle(base_);
}

Digraph ThroughputEngine::graph() const {
  Digraph g = base_;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    g.edge(e).relay_stations = flat_.edge(e).latency - 1;
  return g;
}

void ThroughputEngine::set_label_latency(std::size_t label, int latency) {
  for (int k = label_begin_[label]; k < label_begin_[label + 1]; ++k) {
    int& current =
        flat_.edge(label_edges_[static_cast<std::size_t>(k)]).latency;
    if (current != latency) {
      current = latency;
      changed_ = true;
    }
  }
}

void ThroughputEngine::revert_label_to_base(std::size_t label) {
  for (int k = label_begin_[label]; k < label_begin_[label + 1]; ++k) {
    const EdgeId e = label_edges_[static_cast<std::size_t>(k)];
    int& current = flat_.edge(e).latency;
    const int base = base_latency_[static_cast<std::size_t>(e)];
    if (current != base) {
      current = base;
      changed_ = true;
    }
  }
  label_rs_[label] = kBase;
}

int ThroughputEngine::label_id(const std::string& label) const {
  const auto it = label_ids_.find(label);
  return it == label_ids_.end() ? -1 : static_cast<int>(it->second);
}

std::vector<int> ThroughputEngine::resolve(
    const std::vector<std::string>& labels) const {
  std::vector<int> ids;
  ids.reserve(labels.size());
  for (const std::string& label : labels) ids.push_back(label_id(label));
  return ids;
}

double ThroughputEngine::throughput(
    const std::vector<std::pair<std::string, int>>& demand) {
  std::vector<int> ids;
  std::vector<int> rs;
  ids.reserve(demand.size());
  rs.reserve(demand.size());
  for (const auto& [label, count] : demand) {
    ids.push_back(label_id(label));
    rs.push_back(count);
  }
  return throughput(ids, rs);
}

double ThroughputEngine::throughput(const std::vector<int>& ids,
                                    const std::vector<int>& rs) {
  WP_REQUIRE(ids.size() == rs.size(),
             "ThroughputEngine: one relay-station count per label id");
  // Validate before mutating, so a rejected query leaves the engine as it
  // was. A count must keep its edge latency 1 + rs positive and in range.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    WP_REQUIRE(ids[i] < static_cast<int>(label_rs_.size()),
               "ThroughputEngine: label id out of range");
    WP_REQUIRE(0 <= rs[i] && rs[i] < std::numeric_limits<int>::max(),
               "ThroughputEngine: relay-station count out of range");
  }
  ++stats_.queries;
  changed_ = false;
  const std::uint64_t epoch = ++epoch_;

  // Apply the demanded labels (duplicates: last one wins, like the
  // reference's sequential apply; unknown labels are ignored). A label
  // whose count did not move costs one compare.
  std::size_t named = 0;  // distinct labels this query names
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0) continue;  // label absent from the graph
    const auto label = static_cast<std::size_t>(ids[i]);
    if (label_epoch_[label] != epoch) {
      label_epoch_[label] = epoch;
      ++named;
      if (label_rs_[label] == kBase) dirty_labels_.push_back(label);
    }
    if (label_rs_[label] != rs[i]) {
      set_label_latency(label, 1 + rs[i]);
      label_rs_[label] = rs[i];
    }
  }
  // Every named label is now on the dirty list. Labels set by an earlier
  // demand but absent from this one revert to the base counts — the
  // reference's fresh copy of the base graph, paid only where an edge
  // actually differs — in one compaction pass, skipped when the query
  // named every dirty label.
  if (named != dirty_labels_.size()) {
    std::size_t kept = 0;
    for (const std::size_t label : dirty_labels_) {
      if (label_epoch_[label] == epoch)
        dirty_labels_[kept++] = label;
      else
        revert_label_to_base(label);
    }
    dirty_labels_.resize(kept);
  }

  if (!changed_ && has_result_) {
    ++stats_.unchanged;
    return ratio_;
  }
  return solve();
}

double ThroughputEngine::solve() {
  if (!cyclic_) {
    ratio_ = 1.0;  // CycleRatioResult's acyclic default
    has_result_ = true;
    ++stats_.acyclic;
    return ratio_;
  }
  if (incremental_ && has_certificate_) {
    // Candidate 1: the previous critical cycle, re-costed on the mutated
    // graph in O(|cycle|). Most moves leave the argmin where it was (only
    // cycles through mutated edges can displace it), so this certifies
    // without running any policy iteration at all.
    if (!critical_cycle_.empty()) {
      const double candidate =
          detail::exact_cycle_ratio(flat_, critical_cycle_);
      if (certify(candidate)) {
        ++stats_.cycle_hits;
        ratio_ = candidate;
        has_result_ = true;
        return ratio_;
      }
    }
    // Candidate 2: a few warm policy-iteration sweeps from the previous
    // optimal policy — the move displaced the argmin (candidate 1's
    // certify diverged on the displacing cycle), but usually only to a
    // neighboring cycle the warmed policy finds within a round or two.
    // The certificate decides; an uncertifiable sweep just falls through.
    // Candidate 1's failed repair left the potentials partially relaxed —
    // harmless, certify() always re-validates every edge from scratch.
    const CycleRatioResult warm =
        detail::howard_policy_iteration(flat_, policy_, howard_, kWarmSweeps);
    if (certify(warm.ratio)) {
      ++stats_.warm_hits;
      critical_cycle_ = warm.critical_cycle;
      ratio_ = warm.ratio;
      has_result_ = true;
      return ratio_;
    }
  }
  // Cold path — same answers as the certified solver
  // (min_cycle_ratio_howard), arrived at by witness descent: converge
  // policy iteration, then certify with the whole-graph Bellman–Ford of
  // rebuild_certificate(). When that diverges the policy stalled above
  // the true minimum — instead of Lawler's from-scratch bisection, jump λ
  // down to the exact ratio of the negative cycle the Bellman–Ford just
  // found (Lawler's own witness-jump step, started from a near-optimal λ)
  // and re-certify; each jump lands on an attained cycle ratio strictly
  // below the last, so a couple of rounds settle where the bisection
  // spends dozens of probes. A certified attained ratio is the exact
  // minimum either way. The converged distances are KEPT as the next
  // queries' dual certificate. The parametric search remains as the
  // safety net behind a round cap.
  ++stats_.fallbacks;
  CycleRatioResult cold =
      detail::howard_policy_iteration(flat_, policy_, howard_, kColdSweeps);
  double lambda = cold.ratio;
  std::vector<EdgeId> cycle = std::move(cold.critical_cycle);
  for (int round = 0; round < 32; ++round) {
    std::vector<EdgeId> witness = rebuild_certificate(lambda);
    if (has_certificate_) {
      critical_cycle_ = std::move(cycle);
      ratio_ = lambda;
      has_result_ = true;
      return ratio_;
    }
    if (witness.empty()) break;  // divergent without a witness → Lawler
    cycle = std::move(witness);
    lambda = detail::exact_cycle_ratio(flat_, cycle);
  }
  const CycleRatioResult exact = min_cycle_ratio_lawler(graph());
  rebuild_certificate(exact.ratio);
  critical_cycle_ = exact.critical_cycle;
  ratio_ = exact.ratio;
  has_result_ = true;
  return ratio_;
}

bool ThroughputEngine::certify(double lambda) {
  // Re-base the certificate at λ: each π(v) is the value of a concrete
  // super-source path whose latency we remembered, and path values are
  // linear in λ — so the shift is exact, not an approximation. After it,
  // only edges whose optimal path changed (or whose latency was mutated)
  // can violate, no matter how far λ moved.
  if (lambda != cert_lambda_) {
    const double delta = lambda - cert_lambda_;
    for (std::size_t v = 0; v < potential_.size(); ++v)
      potential_[v] -= delta * potential_lat_[v];
    cert_lambda_ = lambda;
  }
  // Slack scan: π certifies λ iff every edge satisfies
  // tokens − λ·latency + π(src) − π(dst) ≥ 0. Violations seed a
  // Bellman–Ford worklist that relaxes π downward from the frontier; if it
  // drains, the repaired π certifies λ (kept for the next query). A
  // genuinely smaller cycle makes the relaxations chase their own tail, so
  // the budget bounds the incremental cost before conceding to the cold
  // solver.
  worklist_.clear();
  auto enqueue = [this](NodeId v) {
    if (!in_worklist_[static_cast<std::size_t>(v)]) {
      in_worklist_[static_cast<std::size_t>(v)] = 1;
      worklist_.push_back(v);
    }
  };
  double* const potential = potential_.data();
  double* const potential_lat = potential_lat_.data();
  for (const detail::FlatGraph::Edge& edge : flat_.edges)
    if (relax(edge, lambda, potential, potential_lat)) enqueue(edge.dst);
  if (worklist_.empty()) return true;

  // Two failure detectors, both safe (failure only demotes the candidate):
  // a global relaxation budget, and a per-node pop cap — when λ sits above
  // the true minimum the relaxations lap the violating cycle forever, so a
  // node popping many times signals divergence after ~cap laps instead of
  // after the whole budget.
  std::size_t budget = 8 * flat_.edges.size() + 64;
  constexpr std::uint32_t kMaxPopsPerNode = 6;
  std::fill(pops_.begin(), pops_.end(), 0);
  auto give_up = [&](std::size_t head) {
    for (std::size_t i = head; i < worklist_.size(); ++i)
      in_worklist_[static_cast<std::size_t>(worklist_[i])] = 0;
    return false;
  };
  for (std::size_t head = 0; head < worklist_.size(); ++head) {
    const auto v = static_cast<std::size_t>(worklist_[head]);
    in_worklist_[v] = 0;
    // Inconclusive: drop out with the dedup flags drained. The
    // half-repaired potentials stay — they are a legal starting guess for
    // the next certify (the scan re-validates every edge), and the cold
    // fallback rebuilds them from scratch anyway.
    if (++pops_[v] > kMaxPopsPerNode) return give_up(head);
    for (int k = flat_.out_begin[v]; k < flat_.out_begin[v + 1]; ++k) {
      if (budget == 0) return give_up(head);
      --budget;
      const detail::FlatGraph::Edge& edge =
          flat_.edge(flat_.out[static_cast<std::size_t>(k)]);
      if (relax(edge, lambda, potential, potential_lat)) enqueue(edge.dst);
    }
  }
  return true;
}

std::vector<EdgeId> ThroughputEngine::rebuild_certificate(double lambda) {
  // Bellman–Ford to a feasible potential at λ (possible iff no cycle is
  // negative there — true for a certified ratio, where the critical cycle
  // sits exactly at weight 0). Warm-started: every held π(v) is a real
  // path's value, re-based at λ by the exact affine shift and clamped to
  // the empty path's 0 — usually a handful of passes from feasibility
  // instead of a from-scratch solve.
  if (lambda != cert_lambda_) {
    const double delta = lambda - cert_lambda_;
    for (std::size_t v = 0; v < potential_.size(); ++v)
      potential_[v] -= delta * potential_lat_[v];
  }
  for (std::size_t v = 0; v < potential_.size(); ++v) {
    if (potential_[v] > 0.0) {
      potential_[v] = 0.0;
      potential_lat_[v] = 0.0;
    }
  }
  cert_lambda_ = lambda;
  const int n = flat_.num_nodes();
  has_certificate_ = false;
  std::fill(pred_.begin(), pred_.end(), -1);
  std::fill(stamp_.begin(), stamp_.end(), -1);

  // Every relaxation is a strict (beyond-tolerance) improvement, so a
  // cycle in the predecessor graph is a negative cycle — walking the pred
  // chain after each pass (O(V)) detects divergence after ~diameter
  // passes instead of burning all n+1 passes to prove it.
  auto pred_cycle_from = [&](NodeId start, int id) -> std::vector<EdgeId> {
    NodeId v = start;
    while (v >= 0 && pred_[static_cast<std::size_t>(v)] >= 0) {
      if (stamp_[static_cast<std::size_t>(v)] == id) {
        std::vector<EdgeId> cycle;
        NodeId u = v;
        do {
          const EdgeId e = pred_[static_cast<std::size_t>(u)];
          cycle.push_back(e);
          u = flat_.edge(e).src;
        } while (u != v);
        std::reverse(cycle.begin(), cycle.end());
        return cycle;
      }
      stamp_[static_cast<std::size_t>(v)] = id;
      v = flat_.edge(pred_[static_cast<std::size_t>(v)]).src;
    }
    return {};
  };

  double* const potential = potential_.data();
  double* const potential_lat = potential_lat_.data();
  for (int pass = 0; pass <= n; ++pass) {
    EdgeId last_relaxed = -1;
    for (EdgeId e = 0; e < flat_.num_edges(); ++e) {
      if (relax(flat_.edge(e), lambda, potential, potential_lat)) {
        pred_[static_cast<std::size_t>(flat_.edge(e).dst)] = e;
        last_relaxed = e;
      }
    }
    if (last_relaxed == -1) {
      has_certificate_ = true;
      return {};
    }
    std::vector<EdgeId> witness =
        pred_cycle_from(flat_.edge(last_relaxed).dst, pass);
    if (!witness.empty()) return witness;
  }
  // n+1 passes of relaxations without a pred cycle surfacing behind the
  // last relaxed edge — divergent, but without a clean witness; let the
  // caller's descent cap hand this to the parametric search.
  return {};
}

}  // namespace wp::graph
