// Differential guardrail for the incremental throughput engine:
// graph::ThroughputEngine must be *bitwise* identical to a fresh
// min_cycle_ratio_howard() on an equivalently configured graph, across
// random demand-perturbation chains on every topology family — including
// across the incremental-vs-cold-fallback paths and under the thread pool
// (serial ≡ pooled). Also pins the annealer
// integration (engine-backed run ≡ a run whose throughput_fn solves every
// demand fresh), the per-request query-path counts of a BA-128 anneal, and
// the ensemble's engine-counter determinism.
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
#include "fresh_howard.hpp"
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

TEST(ThroughputEngine, ColdModeMatchesIncrementalEverywhere) {
  for (const Digraph& base : family_topologies(24, 31)) {
    ThroughputEngine incremental(base);
    ThroughputEngine cold(base);
    cold.set_incremental(false);
    Rng rng(77);
    const auto chain = demand_chain(labels_of(base), 50, rng);
    for (const auto& demand : chain)
      ASSERT_EQ(incremental.throughput(demand), cold.throughput(demand));
    // Path accounting: the cold engine only ever short-circuits on
    // untouched demands; every solving query is a fallback.
    EXPECT_EQ(cold.stats().cycle_hits + cold.stats().warm_hits, 0u);
    EXPECT_EQ(cold.stats().fallbacks + cold.stats().unchanged,
              cold.stats().queries);
    EXPECT_GT(incremental.stats().incremental(),
              incremental.stats().fallbacks);
  }
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

TEST(ThroughputEngineAnnealer, ParallelEngineFactoryMatchesSerialBestOf) {
  const fplan::Instance inst = fplan::cpu_instance();
  const Digraph graph = proc::make_cpu_graph();

  fplan::ParallelAnnealOptions parallel;
  parallel.base = throughput_driven_options(21);
  parallel.restarts = 3;
  parallel.engine_factory = [&graph]() {
    return std::make_unique<ThroughputEngine>(graph);
  };
  ThreadPool pool(3);
  parallel.pool = &pool;
  const fplan::AnnealResult pooled = fplan::anneal_parallel(inst, parallel);

  fplan::AnnealResult best;
  best.cost = 0;
  for (int i = 0; i < parallel.restarts; ++i) {
    fplan::AnnealOptions options = throughput_driven_options(21 + i);
    ThroughputEngine engine(graph);
    options.throughput_engine = &engine;
    const fplan::AnnealResult result = fplan::anneal(inst, options);
    if (i == 0 || result.cost < best.cost) best = result;
  }
  EXPECT_EQ(pooled.cost, best.cost);
  EXPECT_EQ(pooled.seed, best.seed);
  EXPECT_EQ(pooled.placement.x, best.placement.x);
  EXPECT_EQ(pooled.throughput, best.throughput);
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
  EXPECT_EQ(stats.cycle_hits, 455u);
  EXPECT_EQ(stats.warm_hits, 42u);
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

  const gen::EnsembleReport sequential =
      gen::run_ensemble_sequential(config);
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
