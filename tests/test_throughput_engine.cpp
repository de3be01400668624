// Differential guardrail for the incremental throughput engine:
// graph::ThroughputEngine must be *bitwise* identical to a fresh
// min_cycle_ratio_howard() on an equivalently configured graph, across
// random demand-perturbation chains on every topology family — including
// cold fallbacks that start from an earlier query's policy and potentials,
// and under the thread pool (serial ≡ pooled) and through the scoped-certify and repair-witness
// steps on a literal two-loop graph. Also pins the annealer integration
// (engine-backed run ≡ a run whose throughput_fn solves every demand
// fresh), the query-path counts of a BA-128 anneal and of the CPU case
// study, and the ensemble's engine-counter determinism.
//
// This suite is the engine's equivalent of test_pack_equivalence and runs
// explicitly in the Debug and ASan/UBSan CI jobs.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"

#include "floorplan/annealer.hpp"
#include "floorplan/instances.hpp"
#include "gen/ensemble.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"
#include "testkit/fresh_howard.hpp"
#include "graph/throughput_engine.hpp"
#include "proc/cpu.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wp::graph {
namespace {

// The reference semantics the engine must reproduce: a fresh certified
// Howard solve of a configured copy of the base graph.
using reference::Demand;
using reference::fresh_ratio;

std::vector<std::string> labels_of(const Digraph& g) {
  std::vector<std::string> labels;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const std::string& label = g.edge(e).label;
    if (std::find(labels.begin(), labels.end(), label) == labels.end())
      labels.push_back(label);
  }
  return labels;
}

/// One topology per family, relay stations cleared (the ensemble's base
/// shape: demand is applied on top of a zero-RS graph).
std::vector<Digraph> family_topologies(int nodes, std::uint64_t seed) {
  std::vector<Digraph> graphs;
  for (const gen::TopologyFamily family :
       {gen::TopologyFamily::kBarabasiAlbert,
        gen::TopologyFamily::kWattsStrogatz, gen::TopologyFamily::kMesh,
        gen::TopologyFamily::kClusteredErdosRenyi}) {
    gen::TopologyConfig config;
    config.family = family;
    config.num_nodes = nodes;
    Rng rng(seed + static_cast<std::uint64_t>(family) * 77);
    Digraph g = gen::generate_topology(config, rng);
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      g.edge(e).relay_stations = 0;
    graphs.push_back(std::move(g));
  }
  return graphs;
}

/// A randomized demand chain shaped like an annealer's: mostly small
/// perturbations of the previous demand (the incremental sweet spot),
/// occasionally a fresh random full demand (certificate stress), sometimes
/// a repeat (the unchanged fast path).
std::vector<Demand> demand_chain(const std::vector<std::string>& labels,
                                 int length, Rng& rng) {
  std::vector<Demand> chain;
  std::map<std::string, int> current;
  for (const auto& label : labels) current[label] = 0;
  for (int step = 0; step < length; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.15 && !chain.empty()) {
      chain.push_back(chain.back());  // identical demand
      continue;
    }
    if (roll < 0.30) {
      for (auto& [label, rs] : current)
        rs = static_cast<int>(rng.below(5));  // jump
    } else {
      const int mutations = 1 + static_cast<int>(rng.below(2));
      for (int m = 0; m < mutations; ++m) {
        auto it = current.begin();
        std::advance(it, static_cast<long>(rng.below(current.size())));
        it->second = static_cast<int>(rng.below(5));
      }
    }
    chain.push_back(Demand(current.begin(), current.end()));
  }
  return chain;
}

class EngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalence, RandomDemandChainsMatchFreshHoward) {
  const int nodes = GetParam();
  for (const Digraph& base : family_topologies(nodes, 100 + nodes)) {
    ThroughputEngine engine(base);
    Rng rng(500 + nodes);
    const auto chain = demand_chain(labels_of(base), 60, rng);
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const double expected = fresh_ratio(base, chain[i]);
      ASSERT_EQ(engine.throughput(chain[i]), expected)
          << "nodes=" << nodes << " step " << i;
    }
    const ThroughputEngine::Stats& stats = engine.stats();
    EXPECT_EQ(stats.queries, chain.size());
    EXPECT_EQ(stats.incremental() + stats.fallbacks, stats.queries);
    // The chain is perturbation-shaped, so the incremental paths must
    // actually carry it — a silently always-cold engine would still be
    // correct, but pointless.
    EXPECT_GT(stats.incremental(), stats.queries / 2)
        << "nodes=" << nodes;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineEquivalence,
                         ::testing::Values(8, 24, 48));

TEST(ThroughputEngine, WarmColdFallbacksMatchFreshHoward) {
  // A fallback after a chain's first query re-solves cold from the policy
  // and potentials the earlier queries left behind. Such warm fallbacks
  // are rare: demand_chain()'s annealer-shaped chains reach none at 24
  // nodes. So every query here is a jump, a fresh full demand of up to 64
  // relay stations per label, on the 128-node families, where a repair
  // more often gives up without a witness. Each answer must equal a fresh
  // Howard solve.
  std::uint64_t warm_fallbacks = 0;
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    for (const Digraph& base : family_topologies(128, seed)) {
      const std::vector<std::string> labels = labels_of(base);
      ThroughputEngine engine(base);
      Rng rng(77);
      for (int step = 0; step < 50; ++step) {
        Demand demand;
        for (const auto& label : labels)
          demand.emplace_back(label, static_cast<int>(rng.below(65)));
        ASSERT_EQ(engine.throughput(demand), fresh_ratio(base, demand))
            << "seed " << seed << " step " << step;
      }
      const ThroughputEngine::Stats& stats = engine.stats();
      EXPECT_EQ(stats.incremental() + stats.fallbacks, stats.queries);
      ASSERT_GE(stats.fallbacks, 1u);  // the first query has nothing to reuse
      warm_fallbacks += stats.fallbacks - 1;
    }
  }
  // These fixed chains reach 5; fewer means the engine's path selection
  // changed and the warm cold path may have gone unchecked.
  EXPECT_GE(warm_fallbacks, 5u);
}

TEST(ThroughputEngine, AcyclicGraphAlwaysReportsUnitThroughput) {
  Digraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  g.add_edge(a, b, "ab");
  g.add_edge(b, c, "bc");
  ThroughputEngine engine(g);
  EXPECT_EQ(engine.throughput({}), 1.0);
  EXPECT_EQ(engine.throughput({{"ab", 3}}), 1.0);
  EXPECT_EQ(engine.throughput({{"bc", 1}}), fresh_ratio(g, {{"bc", 1}}));
}

TEST(ThroughputEngine, UnknownLabelsAreIgnored) {
  const Digraph base = proc::make_cpu_graph();
  ThroughputEngine engine(base);
  const double plain = engine.throughput({});
  EXPECT_EQ(engine.throughput({{"NO-SUCH", 7}}), plain);
  EXPECT_EQ(engine.stats().unchanged, 1u);
}

TEST(ThroughputEngine, IdQueriesMatchLabelQueriesAndFreshHoward) {
  for (const Digraph& base : family_topologies(24, 61)) {
    // Every demand of the chain carries two labels the graph lacks.
    std::vector<std::string> labels = labels_of(base);
    labels.push_back("NO-SUCH");
    labels.push_back("ZZ-absent");
    Rng rng(314);
    const auto chain = demand_chain(labels, 40, rng);

    ThroughputEngine by_label(base);
    ThroughputEngine by_id(base);
    std::vector<std::string> chain_labels;
    for (const auto& [label, rs] : chain.front()) chain_labels.push_back(label);
    const std::vector<int> ids = by_id.resolve(chain_labels);
    ASSERT_EQ(ids.size(), chain_labels.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      EXPECT_EQ(ids[i] < 0, chain_labels[i] == "NO-SUCH" ||
                                chain_labels[i] == "ZZ-absent")
          << chain_labels[i];

    std::vector<int> rs;
    for (std::size_t step = 0; step < chain.size(); ++step) {
      rs.clear();
      for (const auto& [label, count] : chain[step]) rs.push_back(count);
      const double expected = fresh_ratio(base, chain[step]);
      ASSERT_EQ(by_label.throughput(chain[step]), expected) << "step " << step;
      ASSERT_EQ(by_id.throughput(ids, rs), expected) << "step " << step;
    }
    // Same apply path, so the same query-path accounting.
    EXPECT_EQ(by_label.stats().unchanged, by_id.stats().unchanged);
    EXPECT_EQ(by_label.stats().fallbacks, by_id.stats().fallbacks);
  }
}

TEST(ThroughputEngine, OmittedLabelsRevertToBaseCounts) {
  // Demands naming random subsets of the labels (with repeats): a label a
  // demand leaves out must fall back to its BASE count, like the
  // reference's fresh configured copy. Non-zero base counts make a missed
  // revert visible, and a few demands name every label so the engine's
  // skip-the-revert-pass case runs too.
  for (Digraph base : family_topologies(24, 47)) {
    Rng rng(2024);
    for (EdgeId e = 0; e < base.num_edges(); ++e)
      base.edge(e).relay_stations = static_cast<int>(rng.below(3));
    const std::vector<std::string> labels = labels_of(base);
    ThroughputEngine engine(base);
    for (int step = 0; step < 60; ++step) {
      Demand demand;
      const bool all = step % 7 == 0;
      for (const std::string& label : labels)
        if (all || rng.below(3) == 0)
          demand.emplace_back(label, static_cast<int>(rng.below(5)));
      if (!demand.empty() && rng.below(4) == 0)
        demand.emplace_back(demand.front().first,
                            static_cast<int>(rng.below(5)));
      ASSERT_EQ(engine.throughput(demand), fresh_ratio(base, demand))
          << "step " << step << " labels " << demand.size();
    }
  }
}

TEST(ThroughputEngine, IdQueriesRejectMalformedInput) {
  ThroughputEngine engine(proc::make_cpu_graph());
  const std::vector<int> ids = engine.resolve({"CU-IC", "NO-SUCH"});
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_GE(ids[0], 0);
  EXPECT_EQ(ids[1], -1);
  EXPECT_THROW(engine.throughput(ids, {1}), wp::ContractViolation);
  EXPECT_THROW(engine.throughput({1 << 20}, {1}), wp::ContractViolation);
  // A count the engine cannot represent: a negative one would make an edge
  // latency 1 + rs <= 0, and INT_MAX would overflow it. Both are rejected
  // up front, by id and by label, and leave the engine answering as before.
  const double before = engine.throughput(ids, {2, 0});
  constexpr int kMax = std::numeric_limits<int>::max();
  for (const int bad : {-1, -5, kMax}) {
    EXPECT_THROW(engine.throughput(ids, {bad, 0}), wp::ContractViolation);
    EXPECT_THROW(engine.throughput(ids, {3, bad}), wp::ContractViolation);
    EXPECT_THROW(engine.throughput({{"CU-IC", bad}}), wp::ContractViolation);
  }
  EXPECT_NO_THROW(engine.throughput(ids, {kMax - 1, 0}));
  EXPECT_EQ(engine.throughput(ids, {2, 0}), before);
  EXPECT_EQ(engine.throughput(ids, {2, 0}),
            fresh_ratio(proc::make_cpu_graph(), {{"CU-IC", 2}}));
}

void expect_same_stats(const ThroughputEngine::Stats& a,
                       const ThroughputEngine::Stats& b, int step) {
  EXPECT_EQ(a.queries, b.queries) << "step " << step;
  EXPECT_EQ(a.unchanged, b.unchanged) << "step " << step;
  EXPECT_EQ(a.acyclic, b.acyclic) << "step " << step;
  EXPECT_EQ(a.cycle_hits, b.cycle_hits) << "step " << step;
  EXPECT_EQ(a.witness_hits, b.witness_hits) << "step " << step;
  EXPECT_EQ(a.fallbacks, b.fallbacks) << "step " << step;
}

TEST(ThroughputEngine, DeltaQueriesMatchDenseQueriesOnATwin) {
  // Two engines on one graph hear the same demand chain: `dense` as whole
  // demands, `delta` as the positions that moved since its previous query
  // (the annealer's path). Every step must give the same ratio — the fresh
  // reference's — and leave both engines with the same Stats. The chain
  // mixes small perturbations, whole-demand jumps, empty deltas, deltas
  // naming unmoved and absent (-1) positions, and a dense query to both
  // engines now and then.
  for (const Digraph& base : family_topologies(24, 83)) {
    std::vector<std::string> labels = labels_of(base);
    labels.push_back("NO-SUCH");
    labels.insert(labels.begin(), "AA-absent");
    ThroughputEngine dense(base);
    ThroughputEngine delta(base);
    const std::vector<int> ids = delta.resolve(labels);
    Rng rng(91);
    std::vector<int> rs(ids.size(), 0);
    std::vector<int> previous;
    std::uint64_t seen = 0;
    std::vector<int> changed;
    for (int step = 0; step < 80; ++step) {
      previous = rs;
      const double roll = rng.uniform();
      const bool whole = step == 0 || roll < 0.1;
      if (roll < 0.2) {
        for (int& count : rs) count = static_cast<int>(rng.below(5));
      } else if (roll < 0.3) {
        // an empty delta: nothing moves
      } else {
        const int mutations = 1 + static_cast<int>(rng.below(3));
        for (int m = 0; m < mutations; ++m)
          rs[rng.below(rs.size())] = static_cast<int>(rng.below(5));
      }
      double by_delta;
      if (whole) {
        by_delta = delta.throughput(ids, rs);
      } else {
        changed.clear();
        for (std::size_t i = 0; i < rs.size(); ++i)
          if (rs[i] != previous[i] || ids[i] < 0 || rng.below(8) == 0)
            changed.push_back(static_cast<int>(i));
        by_delta =
            delta.throughput(ids, rs, changed.data(), changed.size(), seen);
      }
      seen = delta.stats().queries;
      const double by_dense = dense.throughput(ids, rs);
      Demand demand;
      for (std::size_t i = 0; i < labels.size(); ++i)
        demand.emplace_back(labels[i], rs[i]);
      ASSERT_EQ(by_dense, fresh_ratio(base, demand)) << "step " << step;
      ASSERT_EQ(by_delta, by_dense) << "step " << step;
      expect_same_stats(delta.stats(), dense.stats(), step);
    }
    EXPECT_GT(delta.stats().incremental(), delta.stats().queries / 2);
  }
}

TEST(ThroughputEngine, DeltaQueryAfterAForeignQueryIsRejected) {
  const Digraph base = proc::make_cpu_graph();
  ThroughputEngine engine(base);
  const std::vector<int> ids = engine.resolve({"CU-IC", "RF-ALU", "NO-SUCH"});
  std::vector<int> rs = {2, 1, 0};
  engine.throughput(ids, rs);
  const std::uint64_t seen = engine.stats().queries;

  // Another caller queries in between: its demand omits CU-IC, which
  // reverts to its base count, so a delta against the first caller's
  // demand would be answered for a configuration nobody asked for.
  const double foreign = engine.throughput({{"RF-ALU", 3}});
  const ThroughputEngine::Stats before = engine.stats();
  rs[1] = 4;
  const int moved[] = {1};
  EXPECT_THROW(engine.throughput(ids, rs, moved, 1, seen),
               wp::ContractViolation);
  // Rejected: no query counted, no edge moved.
  expect_same_stats(engine.stats(), before, 0);
  EXPECT_EQ(engine.throughput({{"RF-ALU", 3}}), foreign);
  EXPECT_EQ(engine.stats().unchanged, before.unchanged + 1);

  // Malformed deltas are rejected the same way, from a matching count.
  const std::uint64_t now = engine.stats().queries;
  const ThroughputEngine::Stats held = engine.stats();
  const int out_of_range[] = {3};
  const int negative[] = {-1};
  EXPECT_THROW(engine.throughput(ids, rs, out_of_range, 1, now),
               wp::ContractViolation);
  EXPECT_THROW(engine.throughput(ids, rs, negative, 1, now),
               wp::ContractViolation);
  std::vector<int> bad = rs;
  bad[0] = -1;
  const int first[] = {0};
  EXPECT_THROW(engine.throughput(ids, bad, first, 1, now),
               wp::ContractViolation);
  EXPECT_THROW(engine.throughput({1 << 20}, {1}, first, 1, now),
               wp::ContractViolation);
  expect_same_stats(engine.stats(), held, 1);

  // Only the named entries are validated: an invalid count at a position
  // the delta does not name is never read.
  const int second[] = {1};
  EXPECT_EQ(engine.throughput(ids, bad, second, 1, now),
            fresh_ratio(base, {{"RF-ALU", 4}}));
}

/// Two loops sharing node b: C1 = a→b→a (2 tokens) and C2 = b→c→d→b (3
/// tokens), plus an edge a→e off every cycle. Relay stations set the
/// ratios: C1 = 2 / (2 + rs_ab + rs_ba), C2 = 3 / (3 + rs_bc + rs_cd +
/// rs_db).
Digraph two_loop_graph() {
  Digraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const NodeId c = g.add_node("c");
  const NodeId d = g.add_node("d");
  const NodeId e = g.add_node("e");
  g.add_edge(a, b, "ab");
  g.add_edge(b, a, "ba");
  g.add_edge(b, c, "bc");
  g.add_edge(c, d, "cd");
  g.add_edge(d, b, "db");
  g.add_edge(a, e, "ae");
  return g;
}

TEST(ThroughputEngine, ScopedCertifyMatchesFreshHoward) {
  // Each step's first candidate is the held critical cycle. At a λ no
  // higher than the proven one, certify checks only the edges the query
  // raised, so every step below runs that scoped path except where noted.
  const Digraph base = two_loop_graph();
  ThroughputEngine engine(base);
  const ThroughputEngine::Stats& stats = engine.stats();
  auto query = [&](const Demand& demand, const char* step) {
    ASSERT_EQ(engine.throughput(demand), fresh_ratio(base, demand)) << step;
  };

  query({{"ab", 1}}, "cold start: C1 = 2/3 is critical");
  ASSERT_EQ(stats.fallbacks, 1u);

  // 1. Off-critical edges move, λ stays at 2/3: a raise on C2 (3/4) and
  // on a→e, then a raise and two lowerings (bc reverts to its base count).
  query({{"ab", 1}, {"ae", 3}, {"bc", 1}}, "1a: raise off-critical edges");
  query({{"ab", 1}, {"ae", 1}, {"cd", 1}}, "1b: raise cd, lower ae and bc");
  EXPECT_EQ(stats.cycle_hits, 2u);

  // 2. Raising C1 lowers its ratio to 1/2: a candidate below the proof.
  query({{"ab", 2}, {"cd", 1}}, "2: lower the critical ratio");
  EXPECT_EQ(stats.cycle_hits, 3u);

  // 3. Raising cd makes C2 = 3/7 the new minimum: C1's repair at 1/2 laps
  // C2, and the first node it pops again has a predecessor chain that
  // closes on C2, so it gives up with C2 as the witness. C2 certifies on
  // a full scan, because the give-up dropped the proof.
  query({{"ab", 2}, {"cd", 4}}, "3: a repair gives up");
  EXPECT_EQ(stats.witness_hits, 1u);

  // 4. Raising cd again re-queries C2 at 3/8, below the held 3/7.
  query({{"ab", 2}, {"cd", 5}}, "4: re-query below the held ratio");
  EXPECT_EQ(stats.cycle_hits, 4u);

  EXPECT_EQ(stats.queries, 6u);
  EXPECT_EQ(stats.fallbacks, 1u);
}

TEST(ThroughputEngine, FailedRepairWitnessCertifiesNextCycle) {
  const Digraph base = two_loop_graph();
  ThroughputEngine engine(base);
  const Demand start = {{"ab", 2}, {"cd", 2}};  // C1 = 1/2, C2 = 3/5
  ASSERT_EQ(engine.throughput(start), fresh_ratio(base, start));
  const ThroughputEngine::Stats before = engine.stats();

  // Dropping C1's relay stations raises its ratio to 1, so the argmin
  // moves to C2. Certifying C1 at 1 makes the repair lap C2 until a
  // predecessor chain closes on it; C2's ratio 3/5 then certifies — no
  // cold re-solve.
  const Demand moved = {{"ab", 0}, {"cd", 2}};
  const double expected = fresh_ratio(base, moved);
  ASSERT_EQ(expected, 0.6);
  ASSERT_EQ(engine.throughput(moved), expected);
  EXPECT_EQ(engine.stats().witness_hits, before.witness_hits + 1);
  EXPECT_EQ(engine.stats().fallbacks, before.fallbacks);
}

TEST(ThroughputEngine, SerialEqualsPooled) {
  const auto bases = family_topologies(24, 9);
  // Serial reference: one engine per topology, a fixed chain each.
  std::vector<std::vector<double>> serial(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    ThroughputEngine engine(bases[i]);
    Rng rng(123 + i);
    for (const auto& demand : demand_chain(labels_of(bases[i]), 30, rng))
      serial[i].push_back(engine.throughput(demand));
  }
  // Pooled: private engine per worker task, same chains.
  std::vector<std::vector<double>> pooled(bases.size());
  ThreadPool pool(4);
  pool.parallel_for(0, bases.size(), [&](std::size_t i) {
    ThroughputEngine engine(bases[i]);
    Rng rng(123 + i);
    for (const auto& demand : demand_chain(labels_of(bases[i]), 30, rng))
      pooled[i].push_back(engine.throughput(demand));
  });
  EXPECT_EQ(serial, pooled);
}

// ---------------------------------------------------------------- annealer

fplan::AnnealOptions throughput_driven_options(std::uint64_t seed) {
  fplan::AnnealOptions options;
  options.iterations = 1200;
  options.seed = seed;
  options.weight_throughput = 300.0;
  options.delay_model.clock_ps = 350.0;
  return options;
}

TEST(ThroughputEngineAnnealer, EngineRunMatchesFreshHowardRun) {
  const fplan::Instance inst = fplan::cpu_instance();
  const Digraph graph = proc::make_cpu_graph();

  fplan::AnnealOptions with_fn = throughput_driven_options(5);
  with_fn.throughput_fn = reference::fresh_howard_fn(graph);
  const fplan::AnnealResult reference = fplan::anneal(inst, with_fn);

  fplan::AnnealOptions with_engine = throughput_driven_options(5);
  ThroughputEngine engine(graph);
  with_engine.throughput_engine = &engine;
  const fplan::AnnealResult result = fplan::anneal(inst, with_engine);

  // Identical trajectory: the oracle swap must not change a single cost.
  EXPECT_EQ(result.cost, reference.cost);
  EXPECT_EQ(result.placement.x, reference.placement.x);
  EXPECT_EQ(result.placement.y, reference.placement.y);
  EXPECT_EQ(result.throughput, reference.throughput);
  EXPECT_EQ(result.accepted_moves, reference.accepted_moves);
  // One oracle query per scored placement: the initial one plus every
  // move. On the engine run each of them is one engine query.
  for (const fplan::AnnealResult* run : {&reference, &result}) {
    EXPECT_EQ(run->evaluations, with_fn.iterations);
    EXPECT_EQ(run->throughput_evals, run->evaluations + 1);
  }
  EXPECT_EQ(result.engine_incremental + result.engine_fallbacks,
            static_cast<std::uint64_t>(result.throughput_evals));
  EXPECT_EQ(reference.engine_incremental + reference.engine_fallbacks, 0u);

  // The reported terms are the best placement's own, as a reference
  // recomputation from scratch gives them.
  const auto demand =
      fplan::rs_demand(inst, result.placement, with_engine.delay_model);
  EXPECT_EQ(result.area, result.placement.area());
  EXPECT_EQ(result.wirelength, fplan::total_wirelength(inst, result.placement));
  EXPECT_EQ(result.throughput, reference::fresh_ratio(graph, demand));
  EXPECT_EQ(result.cost,
            with_engine.weight_area * result.area +
                with_engine.weight_wirelength * result.wirelength +
                with_engine.weight_throughput * (1.0 - result.throughput));
}

/// Per-request query-path counts of one throughput-driven BA-128 anneal of
/// the wpbench `anneal-throughput-128` shape. The engine and the fresh
/// reference share one Howard core, so the equivalence tests above cannot
/// see a change in the policy trajectory; these literals can. The anneal
/// puts one query per scored placement (501 = the initial placement plus
/// 500 moves); a candidate whose demand repeats the previous query's is
/// the engine's `unchanged` path. The literals must repeat exactly.
TEST(ThroughputEngineAnnealer, Ba128QueryPathCountsArePinned) {
  gen::TopologyConfig topology_config;
  topology_config.family = gen::TopologyFamily::kBarabasiAlbert;
  topology_config.num_nodes = 128;
  Rng rng(1000);
  const Digraph topology = gen::generate_topology(topology_config, rng);
  gen::SystemConfig system;
  system.build_netlist = false;
  const gen::GeneratedSystem sys = gen::dress_topology(topology, system, rng);
  Digraph base = topology;
  for (EdgeId e = 0; e < base.num_edges(); ++e)
    base.edge(e).relay_stations = 0;

  ThroughputEngine engine(std::move(base));
  fplan::AnnealOptions options;
  options.iterations = 500;
  options.cooling = 0.996;
  options.weight_wirelength = 0.05;
  options.weight_throughput = 50.0;
  options.seed = 7;
  options.throughput_engine = &engine;
  (void)fplan::anneal(sys.instance, options);

  const ThroughputEngine::Stats& stats = engine.stats();
  EXPECT_EQ(stats.queries, 501u);
  EXPECT_EQ(stats.unchanged, 3u);
  EXPECT_EQ(stats.acyclic, 0u);
  EXPECT_EQ(stats.cycle_hits, 454u);
  EXPECT_EQ(stats.witness_hits, 43u);
  EXPECT_EQ(stats.fallbacks, 1u);
}

/// The same for one 20,000-move anneal of the 5-block CPU case study in
/// examples/parallel_explore (weight 500, 350 ps, seed 12: that job's best
/// restart). With no memo in front of the engine, every candidate is a
/// query, and nearly all of them must stay off the cold path.
TEST(ThroughputEngineAnnealer, CpuCaseStudyQueryPathCountsArePinned) {
  ThroughputEngine engine(proc::make_cpu_graph());
  fplan::AnnealOptions options;
  options.iterations = 20000;
  options.seed = 12;
  options.weight_throughput = 500.0;
  options.delay_model.clock_ps = 350.0;
  options.throughput_engine = &engine;
  const fplan::AnnealResult result =
      fplan::anneal(fplan::cpu_instance(), options);

  const ThroughputEngine::Stats& stats = engine.stats();
  EXPECT_EQ(result.engine_incremental, 20000u);
  EXPECT_EQ(result.engine_fallbacks, 1u);
  EXPECT_EQ(stats.queries, 20001u);
  EXPECT_EQ(stats.unchanged, 1045u);
  EXPECT_EQ(stats.acyclic, 0u);
  EXPECT_EQ(stats.cycle_hits, 6157u);
  EXPECT_EQ(stats.witness_hits, 12798u);
  EXPECT_EQ(stats.fallbacks, 1u);
}

// ---------------------------------------------------------------- ensemble

TEST(ThroughputEngineEnsemble, CountersAreDeterministicAcrossPooling) {
  gen::EnsembleConfig config;
  config.samples_per_family = 3;
  config.anneal.iterations = 250;

  gen::FamilySpec ba;
  ba.name = "ba-12";
  ba.topology.family = gen::TopologyFamily::kBarabasiAlbert;
  ba.topology.num_nodes = 12;
  ba.topology.ba_attach = 2;
  config.families.push_back(ba);

  gen::FamilySpec mesh;
  mesh.name = "mesh-3x4";
  mesh.topology.family = gen::TopologyFamily::kMesh;
  mesh.topology.num_nodes = 12;
  mesh.topology.mesh_rows = 3;
  mesh.topology.mesh_cols = 4;
  config.families.push_back(mesh);

  ThreadPool one(1);
  const gen::EnsembleReport sequential = gen::run_ensemble(config, &one);
  ThreadPool pool(4);
  const gen::EnsembleReport pooled = gen::run_ensemble(config, &pool);

  // operator== covers the engine counters, so pooling must not change the
  // engine's path selection, not just its results.
  EXPECT_EQ(sequential.samples, pooled.samples);
  EXPECT_EQ(sequential.engine_incremental, pooled.engine_incremental);
  EXPECT_EQ(sequential.engine_fallbacks, pooled.engine_fallbacks);
  std::uint64_t queries = 0;
  for (const auto& s : sequential.samples)
    queries += s.engine_incremental + s.engine_fallbacks;
  EXPECT_GT(queries, 0u);
}

}  // namespace
}  // namespace wp::graph
