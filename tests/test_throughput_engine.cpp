// Differential guardrail for the incremental throughput engine:
// graph::ThroughputEngine must be *bitwise* identical to a fresh
// min_cycle_ratio_howard() on an equivalently configured graph, across
// random demand-perturbation chains on every topology family — including
// through apply/undo, across the incremental-vs-cold-fallback paths, and
// under the thread pool (serial ≡ pooled). Also pins the annealer
// integration (engine-backed run ≡ ThroughputEvaluator-backed run, the
// pre-engine oracle) and the ensemble's engine-counter determinism.
//
// This suite is the engine's equivalent of test_pack_equivalence and runs
// explicitly in the Debug and ASan/UBSan CI jobs.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"

#include "floorplan/annealer.hpp"
#include "floorplan/instances.hpp"
#include "gen/ensemble.hpp"
#include "gen/topologies.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/throughput.hpp"
#include "graph/throughput_engine.hpp"
#include "proc/cpu.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wp::graph {
namespace {

using Demand = std::vector<std::pair<std::string, int>>;

/// The reference semantics the engine must reproduce: copy the base graph,
/// apply the demand per label (unmentioned labels keep base counts), solve
/// fresh with the certified Howard path.
Digraph configured(const Digraph& base, const Demand& demand) {
  Digraph g = base;
  for (const auto& [label, rs] : demand)
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      if (g.edge(e).label == label) g.edge(e).relay_stations = rs;
  return g;
}

double fresh_ratio(const Digraph& base, const Demand& demand) {
  return min_cycle_ratio_howard(configured(base, demand)).ratio;
}

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

TEST_P(EngineEquivalence, MatchesReferenceEvaluatorOnSameChain) {
  const int nodes = GetParam();
  for (const Digraph& base : family_topologies(nodes, 4000 + nodes)) {
    ThroughputEngine engine(base);
    ThroughputEvaluator evaluator(base);  // the pre-engine oracle
    Rng rng(900 + nodes);
    for (const auto& demand : demand_chain(labels_of(base), 40, rng))
      ASSERT_EQ(engine.throughput(demand), evaluator(demand));
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

TEST(ThroughputEngine, UndoRestoresStateAndResult) {
  const Digraph base = proc::make_cpu_graph();
  ThroughputEngine engine(base);
  const Demand d1 = {{"CU-IC", 1}, {"ALU-CU", 2}};
  const Demand d2 = {{"CU-IC", 0}, {"RF-ALU", 3}};

  const double r1 = engine.throughput(d1);
  EXPECT_EQ(r1, fresh_ratio(base, d1));
  const double r2 = engine.throughput(d2);
  EXPECT_EQ(r2, fresh_ratio(base, d2));
  ASSERT_TRUE(engine.can_undo());

  engine.undo();  // back to the d1 configuration
  EXPECT_FALSE(engine.can_undo());
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const Digraph expected = configured(base, d1);
    EXPECT_EQ(engine.graph().edge(e).relay_stations,
              expected.edge(e).relay_stations);
  }
  // Re-querying the restored demand is the unchanged fast path and returns
  // the cached (exact) result.
  const std::uint64_t unchanged_before = engine.stats().unchanged;
  EXPECT_EQ(engine.throughput(d1), r1);
  EXPECT_EQ(engine.stats().unchanged, unchanged_before + 1);
  // Chains keep matching fresh solves after an undo.
  EXPECT_EQ(engine.throughput(d2), r2);

  engine.undo();
  EXPECT_THROW(engine.undo(), wp::ContractViolation);  // one level deep
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

TEST(ThroughputEngine, WithRsMapMatchesVectorForm) {
  const Digraph base = proc::make_cpu_graph();
  ThroughputEngine by_map(base);
  ThroughputEngine by_vector(base);
  const std::map<std::string, int> rs = {
      {"CU-IC", 1}, {"RF-DC", 2}, {"DC-RF", 1}};
  EXPECT_EQ(by_map.with_rs_map(rs),
            by_vector.throughput({rs.begin(), rs.end()}));
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

TEST(ThroughputEngine, IdQueriesRejectMalformedInput) {
  ThroughputEngine engine(proc::make_cpu_graph());
  const std::vector<int> ids = engine.resolve({"CU-IC", "NO-SUCH"});
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_GE(ids[0], 0);
  EXPECT_EQ(ids[1], -1);
  EXPECT_THROW(engine.throughput(ids, {1}), wp::ContractViolation);
  EXPECT_THROW(engine.throughput({1 << 20}, {1}), wp::ContractViolation);
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

TEST(ThroughputEngineAnnealer, EngineRunMatchesEvaluatorRun) {
  const fplan::Instance inst = fplan::cpu_instance();
  const Digraph graph = proc::make_cpu_graph();

  fplan::AnnealOptions with_fn = throughput_driven_options(5);
  with_fn.throughput_fn = ThroughputEvaluator(graph);
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
  EXPECT_EQ(result.throughput_evals, reference.throughput_evals);
  EXPECT_EQ(result.throughput_cache_hits, reference.throughput_cache_hits);
  // Counter plumbing: every engine query of the run (move evaluations plus
  // the final placement_cost report) is accounted one way or the other.
  EXPECT_EQ(result.engine_incremental + result.engine_fallbacks,
            static_cast<std::uint64_t>(result.throughput_evals) + 1);
  EXPECT_EQ(reference.engine_incremental + reference.engine_fallbacks, 0u);
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

// ---------------------------------------------------------------- ensemble

TEST(ThroughputEngineEnsemble, CountersAreDeterministicAcrossPooling) {
  gen::EnsembleConfig config;
  config.samples_per_family = 3;
  config.anneal.iterations = 250;
  config.max_cycle_enumeration = 2000;

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
