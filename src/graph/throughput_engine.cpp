#include "graph/throughput_engine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace wp::graph {

namespace {

/// Obs mirror of ThroughputEngine::Stats, flushed once per engine at
/// destruction (engines are per-worker; the query path stays atomic-free).
struct EngineMetrics {
  obs::Counter& queries;
  obs::Counter& unchanged;
  obs::Counter& acyclic;
  obs::Counter& cycle_hits;
  obs::Counter& witness_hits;
  obs::Counter& fallbacks;

  static EngineMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static EngineMetrics metrics{
        registry.counter("graph/engine/queries"),
        registry.counter("graph/engine/unchanged"),
        registry.counter("graph/engine/acyclic"),
        registry.counter("graph/engine/cycle_hits"),
        registry.counter("graph/engine/witness_hits"),
        registry.counter("graph/engine/fallbacks")};
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
  metrics.witness_hits.add(stats_.witness_hits);
  metrics.fallbacks.add(stats_.fallbacks);
}

ThroughputEngine::ThroughputEngine(Digraph base)
    : base_(std::move(base)), flat_(base_), potentials_(flat_.num_nodes()) {
  // Label CSR: labels numbered in sorted order, each label's edges in
  // edge-id order. One sort of the edge ids builds it, and label_id()
  // binary-searches the labels' first edges, so no string is copied or
  // hashed.
  const auto num_edges = static_cast<std::size_t>(base_.num_edges());
  label_edges_.resize(num_edges);
  std::iota(label_edges_.begin(), label_edges_.end(), EdgeId{0});
  sort_by_label(label_edges_,
                [this](EdgeId e) -> const std::string& { return label_of(e); });
  label_begin_.reserve(num_edges + 1);
  for (std::size_t k = 0; k < num_edges; ++k)
    if (k == 0 || label_of(label_edges_[k]) != label_of(label_edges_[k - 1]))
      label_begin_.push_back(static_cast<int>(k));
  label_begin_.push_back(static_cast<int>(num_edges));
  const std::size_t num_labels = label_begin_.size() - 1;
  base_latency_.reserve(num_edges);
  for (const detail::FlatGraph::Edge& edge : flat_.edges)
    base_latency_.push_back(edge.latency);
  label_rs_.assign(num_labels, kBase);
  label_epoch_.assign(num_labels, 0);

  const auto num_nodes = static_cast<std::size_t>(base_.num_nodes());
  in_worklist_.assign(num_nodes, 0);
  pops_.assign(num_nodes, 0);
  // The query scratch at the sizes a typical query reaches, so a short run
  // does not pay for growing it one reallocation at a time.
  dirty_labels_.reserve(num_labels);
  raised_.reserve(num_edges);
  worklist_.reserve(num_nodes);
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
    const EdgeId e = label_edges_[static_cast<std::size_t>(k)];
    int& current = flat_.edge(e).latency;
    if (current != latency) {
      if (latency > current) raised_.push_back(e);
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
      if (base > current) raised_.push_back(e);
      current = base;
      changed_ = true;
    }
  }
  label_rs_[label] = kBase;
}

const std::string& ThroughputEngine::label_of(EdgeId e) const {
  return base_.edge(e).label;
}

const std::string& ThroughputEngine::label_name(std::size_t label) const {
  return label_of(label_edges_[static_cast<std::size_t>(label_begin_[label])]);
}

int ThroughputEngine::label_id(const std::string& label) const {
  // Labels are numbered in sorted order: the first label not below
  // `label` is the only candidate.
  std::size_t lo = 0;
  std::size_t hi = label_rs_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (label_name(mid) < label)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo < label_rs_.size() && label_name(lo) == label
             ? static_cast<int>(lo)
             : -1;
}

std::vector<int> ThroughputEngine::resolve(
    const std::vector<std::string>& labels) const {
  std::vector<int> ids;
  ids.reserve(labels.size());
  // Sorted labels (a DemandIndex's) usually hit the id after the previous
  // hit: one string compare instead of a search.
  std::size_t next = 0;
  for (const std::string& label : labels) {
    const int id = next < label_rs_.size() && label_name(next) == label
                       ? static_cast<int>(next)
                       : label_id(label);
    ids.push_back(id);
    if (id >= 0) next = static_cast<std::size_t>(id) + 1;
  }
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

void ThroughputEngine::begin_query() {
  ++stats_.queries;
  changed_ = false;
  raised_.clear();
}

void ThroughputEngine::apply(std::size_t label, int rs) {
  if (label_rs_[label] == rs) return;
  if (label_rs_[label] == kBase) dirty_labels_.push_back(label);
  set_label_latency(label, 1 + rs);
  label_rs_[label] = rs;
}

double ThroughputEngine::finish_query() {
  if (!changed_ && has_result_) {
    ++stats_.unchanged;
    return ratio_;
  }
  return solve();
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
  begin_query();
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
    }
    apply(label, rs[i]);
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
  return finish_query();
}

double ThroughputEngine::throughput(const std::vector<int>& ids,
                                    const std::vector<int>& rs,
                                    const int* changed,
                                    std::size_t num_changed,
                                    std::uint64_t queries_seen) {
  WP_REQUIRE(queries_seen == stats_.queries,
             "ThroughputEngine: delta query after another caller's query");
  WP_REQUIRE(ids.size() == rs.size(),
             "ThroughputEngine: one relay-station count per label id");
  for (std::size_t k = 0; k < num_changed; ++k) {
    WP_REQUIRE(changed[k] >= 0 &&
                   static_cast<std::size_t>(changed[k]) < ids.size(),
               "ThroughputEngine: delta position out of range");
    const auto i = static_cast<std::size_t>(changed[k]);
    WP_REQUIRE(ids[i] < static_cast<int>(label_rs_.size()),
               "ThroughputEngine: label id out of range");
    WP_REQUIRE(0 <= rs[i] && rs[i] < std::numeric_limits<int>::max(),
               "ThroughputEngine: relay-station count out of range");
  }
  begin_query();
  // Labels the delta does not name keep their counts, so there is no
  // revert pass: a named label leaves the dirty list only when a later
  // dense query omits it.
  for (std::size_t k = 0; k < num_changed; ++k) {
    const auto i = static_cast<std::size_t>(changed[k]);
    if (ids[i] >= 0) apply(static_cast<std::size_t>(ids[i]), rs[i]);
  }
  return finish_query();
}

double ThroughputEngine::solve() {
  if (!cyclic_) {
    ratio_ = 1.0;  // CycleRatioResult's acyclic default
    has_result_ = true;
    ++stats_.acyclic;
    return ratio_;
  }
  if (!critical_cycle_.empty()) {
    // Candidate 1: the previous critical cycle, re-costed on the mutated
    // graph in O(|cycle|) — most moves leave the argmin where it was. When
    // the move displaced it, the failed repair usually hands back the
    // displacing cycle, whose exact ratio is the next candidate: a witness
    // descent paid at repair cost instead of whole-graph Bellman–Fords.
    double candidate = detail::exact_cycle_ratio(flat_, critical_cycle_);
    for (bool descended = false;; descended = true) {
      if (certify(candidate)) {
        ++(descended ? stats_.witness_hits : stats_.cycle_hits);
        ratio_ = candidate;
        has_result_ = true;
        return ratio_;
      }
      if (witness_.empty()) break;  // gave up without a witness: go cold
      const double lower = detail::exact_cycle_ratio(flat_, witness_);
      WP_CHECK(lower < candidate, "repair witness does not beat the candidate");
      candidate = lower;
      critical_cycle_.swap(witness_);
    }
  }
  // Cold path — the certified solver's own algorithm (policy iteration,
  // then detail::witness_descent), so the answer is the same exact
  // minimum as a fresh min_cycle_ratio_howard(). Policy iteration only
  // seeds the descent with a good attained ratio; when the whole-graph
  // Bellman–Ford diverges, λ jumps to the exact ratio of the negative
  // cycle it surfaced and re-certifies — usually a round or two. The
  // descent warm-starts from the held potentials, and the converged ones
  // are KEPT as the next queries' dual certificate.
  ++stats_.fallbacks;
  CycleRatioResult cold =
      detail::howard_policy_iteration(flat_, policy_, howard_, kColdSweeps);
  proven_lambda_.reset();
  detail::witness_descent(flat_, cold, potentials_);
  proven_lambda_ = cold.ratio;
  critical_cycle_ = std::move(cold.critical_cycle);
  ratio_ = cold.ratio;
  has_result_ = true;
  return ratio_;
}

bool ThroughputEngine::certify(double lambda) {
  // π certifies λ iff every edge has slack
  // tokens − λ·latency + π(src) − π(dst) ≥ 0. Violations seed a
  // Bellman–Ford worklist that relaxes π downward from the frontier; if it
  // drains, the repaired π certifies λ (kept for the next query). Each
  // relaxation records its edge in potentials_.pred, so a repair that
  // chases a genuinely smaller cycle can hand that cycle back.
  witness_.clear();
  worklist_.clear();
  std::vector<EdgeId>& pred = potentials_.pred;
  std::fill(pred.begin(), pred.end(), -1);
  double* const potential = potentials_.value.data();
  double* const potential_lat = potentials_.latency.data();
  auto enqueue = [this](NodeId v) {
    if (!in_worklist_[static_cast<std::size_t>(v)]) {
      in_worklist_[static_cast<std::size_t>(v)] = 1;
      worklist_.push_back(v);
    }
  };
  auto relax = [&](EdgeId e) {
    const detail::FlatGraph::Edge& edge = flat_.edge(e);
    if (detail::relax(edge, lambda, potential, potential_lat)) {
      pred[static_cast<std::size_t>(edge.dst)] = e;
      enqueue(edge.dst);
    }
  };
  if (proven_lambda_ && lambda <= *proven_lambda_) {
    // Scoped: π was proven feasible at a λ at least this high, and since
    // then only this query's edges moved. An unchanged or shortened edge
    // keeps slack ≥ 0 at any lower λ (its −λ·latency term only grows),
    // so only the raised edges can violate — no re-base, no O(E) scan.
    // The repair below re-checks the out-edges of every node it lowers.
    for (const EdgeId e : raised_) relax(e);
  } else {
    // Full: re-base π at λ as a warm start, then scan every edge.
    potentials_.rebase(lambda);
    for (EdgeId e = 0; e < flat_.num_edges(); ++e) relax(e);
  }

  if (worklist_.empty()) {
    proven_lambda_ = lambda;
    return true;
  }
  // Inconclusive exits drain the dedup flags and drop the proof: the
  // half-repaired π is only a warm start now, so the next certify scans
  // every edge.
  auto give_up = [this](std::size_t head) {
    for (std::size_t i = head; i < worklist_.size(); ++i)
      in_worklist_[static_cast<std::size_t>(worklist_[i])] = 0;
    proven_lambda_.reset();
    return false;
  };
  // Failure detectors, all safe (failure only demotes the candidate): a
  // node popped again walks its predecessor chain, and a chain that
  // closes is a cycle negative at λ — every predecessor edge is a strict
  // relaxation at λ — so λ is not the minimum and the cycle is the
  // witness. Behind that, a per-node pop cap and a global relaxation
  // budget bound a repair whose chains never close.
  std::size_t budget = 8 * flat_.edges.size() + 64;
  constexpr std::uint32_t kMaxPopsPerNode = 6;
  std::fill(pops_.begin(), pops_.end(), 0);
  std::fill(potentials_.stamp.begin(), potentials_.stamp.end(), -1);
  int walks = 0;
  for (std::size_t head = 0; head < worklist_.size(); ++head) {
    const NodeId v = worklist_[head];
    const auto i = static_cast<std::size_t>(v);
    in_worklist_[i] = 0;
    if (++pops_[i] > 1) {
      if (detail::predecessor_cycle(flat_, potentials_, v, walks++,
                                    witness_) ||
          pops_[i] > kMaxPopsPerNode)
        return give_up(head);
    }
    for (int k = flat_.out_begin[i]; k < flat_.out_begin[i + 1]; ++k) {
      if (budget == 0) return give_up(head);
      --budget;
      relax(flat_.out[static_cast<std::size_t>(k)]);
    }
  }
  proven_lambda_ = lambda;
  return true;
}

}  // namespace wp::graph
