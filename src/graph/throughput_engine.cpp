#include "graph/throughput_engine.hpp"

#include <algorithm>
#include <cmath>

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
  obs::Counter& undos;

  static EngineMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static EngineMetrics metrics{
        registry.counter("graph/engine/queries"),
        registry.counter("graph/engine/unchanged"),
        registry.counter("graph/engine/acyclic"),
        registry.counter("graph/engine/cycle_hits"),
        registry.counter("graph/engine/warm_hits"),
        registry.counter("graph/engine/fallbacks"),
        registry.counter("graph/engine/undos")};
    return metrics;
  }
};

}  // namespace

ThroughputEngine::~ThroughputEngine() {
  EngineMetrics& metrics = EngineMetrics::get();
  metrics.queries.add(stats_.queries);
  metrics.unchanged.add(stats_.unchanged);
  metrics.acyclic.add(stats_.acyclic);
  metrics.cycle_hits.add(stats_.cycle_hits);
  metrics.warm_hits.add(stats_.warm_hits);
  metrics.fallbacks.add(stats_.fallbacks);
  metrics.undos.add(stats_.undos);
}

ThroughputEngine::ThroughputEngine(Digraph base) : g_(std::move(base)) {
  const auto num_edges = static_cast<std::size_t>(g_.num_edges());
  base_rs_.reserve(num_edges);
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    base_rs_.push_back(g_.edge(e).relay_stations);
    const auto [it, inserted] =
        label_ids_.emplace(g_.edge(e).label, label_edges_.size());
    if (inserted) label_edges_.emplace_back();
    label_edges_[it->second].push_back(e);
  }
  label_epoch_.assign(label_edges_.size(), 0);
  label_dirty_.assign(label_edges_.size(), 0);
  const auto num_nodes = static_cast<std::size_t>(g_.num_nodes());
  potential_.assign(num_nodes, 0.0);
  potential_lat_.assign(num_nodes, 0.0);
  in_worklist_.assign(num_nodes, 0);
  // Cyclicity is structural — relay-station mutations cannot change it, so
  // acyclic instances answer every query as a constant 1.0 (exactly the
  // fresh solver's acyclic result).
  cyclic_ = detail::has_cycle(g_);
}

void ThroughputEngine::set_label_edges(std::size_t label,
                                       int relay_stations) {
  bool dirty = false;
  for (const EdgeId e : label_edges_[label]) {
    int& current = g_.edge(e).relay_stations;
    if (current != relay_stations) {
      trail_.push_back({e, current});
      current = relay_stations;
    }
    if (base_rs_[static_cast<std::size_t>(e)] != relay_stations) dirty = true;
  }
  label_dirty_[label] = dirty ? 1 : 0;
}

void ThroughputEngine::revert_label_to_base(std::size_t label) {
  for (const EdgeId e : label_edges_[label]) {
    int& current = g_.edge(e).relay_stations;
    const int base = base_rs_[static_cast<std::size_t>(e)];
    if (current != base) {
      trail_.push_back({e, current});
      current = base;
    }
  }
  label_dirty_[label] = 0;
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
  ++stats_.queries;
  trail_.clear();
  prev_dirty_labels_ = dirty_labels_;
  prev_ratio_ = ratio_;
  prev_has_result_ = has_result_;
  ++epoch_;

  // Pass 1: apply the demanded labels (duplicates: last one wins, like the
  // evaluator's sequential apply; unknown labels are ignored).
  touched_scratch_.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0) continue;  // label absent from the graph
    const auto label = static_cast<std::size_t>(ids[i]);
    WP_REQUIRE(label < label_edges_.size(),
               "ThroughputEngine: label id out of range");
    if (label_epoch_[label] != epoch_) {
      label_epoch_[label] = epoch_;
      touched_scratch_.push_back(label);
    }
    set_label_edges(label, rs[i]);
  }
  // Pass 2: labels dirtied by an earlier demand but absent from this one
  // revert to the base counts — the evaluator's whole-graph reset, paid
  // only where an edge actually differs.
  for (const std::size_t label : dirty_labels_)
    if (label_epoch_[label] != epoch_) revert_label_to_base(label);
  dirty_labels_.clear();
  for (const std::size_t label : touched_scratch_)
    if (label_dirty_[label]) dirty_labels_.push_back(label);

  can_undo_ = true;
  if (trail_.empty() && has_result_) {
    ++stats_.unchanged;
    return ratio_;
  }
  return solve();
}

double ThroughputEngine::with_rs_map(const std::map<std::string, int>& rs) {
  return throughput({rs.begin(), rs.end()});
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
      const double candidate = detail::exact_cycle_ratio(g_, critical_cycle_);
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
        detail::howard_policy_iteration(g_, state_.policy, kWarmSweeps);
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
      detail::howard_policy_iteration(g_, state_.policy, kColdSweeps);
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
    lambda = detail::exact_cycle_ratio(g_, cycle);
  }
  const CycleRatioResult exact = min_cycle_ratio_lawler(g_);
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
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    const auto& ed = g_.edge(e);
    const double tokens = static_cast<double>(ed.tokens);
    const double latency = static_cast<double>(g_.edge_latency(e));
    const double lt = lambda * latency;
    const double w = tokens - lt;
    const auto s = static_cast<std::size_t>(ed.src);
    const auto d = static_cast<std::size_t>(ed.dst);
    if (detail::relax_improves(potential_[d], potential_[s] + w,
                               std::abs(tokens) + lt)) {
      potential_[d] = potential_[s] + w;
      potential_lat_[d] = potential_lat_[s] + latency;
      if (!in_worklist_[d]) {
        in_worklist_[d] = 1;
        worklist_.push_back(ed.dst);
      }
    }
  }
  if (worklist_.empty()) return true;

  // Two failure detectors, both safe (failure only demotes the candidate):
  // a global relaxation budget, and a per-node pop cap — when λ sits above
  // the true minimum the relaxations lap the violating cycle forever, so a
  // node popping many times signals divergence after ~cap laps instead of
  // after the whole budget.
  std::size_t budget = 8 * static_cast<std::size_t>(g_.num_edges()) + 64;
  constexpr std::uint32_t kMaxPopsPerNode = 6;
  pops_.assign(static_cast<std::size_t>(g_.num_nodes()), 0);
  auto give_up = [&](std::size_t head) {
    for (std::size_t i = head; i < worklist_.size(); ++i)
      in_worklist_[static_cast<std::size_t>(worklist_[i])] = 0;
    return false;
  };
  for (std::size_t head = 0; head < worklist_.size(); ++head) {
    const NodeId v = worklist_[head];
    in_worklist_[static_cast<std::size_t>(v)] = 0;
    // Inconclusive: drop out with the dedup flags drained. The
    // half-repaired potentials stay — they are a legal starting guess for
    // the next certify (the scan re-validates every edge), and the cold
    // fallback rebuilds them from scratch anyway.
    if (++pops_[static_cast<std::size_t>(v)] > kMaxPopsPerNode)
      return give_up(head);
    for (const EdgeId e : g_.out_edges(v)) {
      if (budget == 0) return give_up(head);
      --budget;
      const auto& ed = g_.edge(e);
      const double tokens = static_cast<double>(ed.tokens);
      const double latency = static_cast<double>(g_.edge_latency(e));
      const double lt = lambda * latency;
      const double w = tokens - lt;
      const auto s = static_cast<std::size_t>(ed.src);
      const auto d = static_cast<std::size_t>(ed.dst);
      if (detail::relax_improves(potential_[d], potential_[s] + w,
                                 std::abs(tokens) + lt)) {
        potential_[d] = potential_[s] + w;
        potential_lat_[d] = potential_lat_[s] + latency;
        if (!in_worklist_[d]) {
          in_worklist_[d] = 1;
          worklist_.push_back(ed.dst);
        }
      }
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
  const int n = g_.num_nodes();
  has_certificate_ = false;
  std::vector<EdgeId> pred(static_cast<std::size_t>(g_.num_nodes()), -1);
  std::vector<int> stamp(static_cast<std::size_t>(g_.num_nodes()), -1);

  // Every relaxation is a strict (beyond-tolerance) improvement, so a
  // cycle in the predecessor graph is a negative cycle — walking the pred
  // chain after each pass (O(V)) detects divergence after ~diameter
  // passes instead of burning all n+1 passes to prove it.
  auto pred_cycle_from = [&](NodeId start, int id) -> std::vector<EdgeId> {
    NodeId v = start;
    while (v >= 0 && pred[static_cast<std::size_t>(v)] >= 0) {
      if (stamp[static_cast<std::size_t>(v)] == id) {
        std::vector<EdgeId> cycle;
        NodeId u = v;
        do {
          const EdgeId e = pred[static_cast<std::size_t>(u)];
          cycle.push_back(e);
          u = g_.edge(e).src;
        } while (u != v);
        std::reverse(cycle.begin(), cycle.end());
        return cycle;
      }
      stamp[static_cast<std::size_t>(v)] = id;
      v = g_.edge(pred[static_cast<std::size_t>(v)]).src;
    }
    return {};
  };

  for (int pass = 0; pass <= n; ++pass) {
    EdgeId last_relaxed = -1;
    for (EdgeId e = 0; e < g_.num_edges(); ++e) {
      const auto& ed = g_.edge(e);
      const double tokens = static_cast<double>(ed.tokens);
      const double latency = static_cast<double>(g_.edge_latency(e));
      const double lt = lambda * latency;
      const double w = tokens - lt;
      const auto s = static_cast<std::size_t>(ed.src);
      const auto d = static_cast<std::size_t>(ed.dst);
      if (detail::relax_improves(potential_[d], potential_[s] + w,
                                 std::abs(tokens) + lt)) {
        potential_[d] = potential_[s] + w;
        potential_lat_[d] = potential_lat_[s] + latency;
        pred[d] = e;
        last_relaxed = e;
      }
    }
    if (last_relaxed == -1) {
      has_certificate_ = true;
      return {};
    }
    std::vector<EdgeId> witness =
        pred_cycle_from(g_.edge(last_relaxed).dst, pass);
    if (!witness.empty()) return witness;
  }
  // n+1 passes of relaxations without a pred cycle surfacing behind the
  // last relaxed edge — divergent, but without a clean witness; let the
  // caller's descent cap hand this to the parametric search.
  return {};
}

void ThroughputEngine::undo() {
  WP_REQUIRE(can_undo_, "ThroughputEngine: nothing to undo");
  for (auto it = trail_.rbegin(); it != trail_.rend(); ++it)
    g_.edge(it->edge).relay_stations = it->old_relay_stations;
  trail_.clear();
  for (const std::size_t label : dirty_labels_) label_dirty_[label] = 0;
  dirty_labels_ = prev_dirty_labels_;
  for (const std::size_t label : dirty_labels_) label_dirty_[label] = 1;
  ratio_ = prev_ratio_;
  has_result_ = prev_has_result_;
  can_undo_ = false;
  ++stats_.undos;
  // Howard state and the certificate stay as they are: both are advisory —
  // every future query re-validates them against the current graph.
}

}  // namespace wp::graph
