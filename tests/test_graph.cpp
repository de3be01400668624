// Graph-analysis tests: digraph bookkeeping, Johnson cycle enumeration,
// the certified Howard solver against the exhaustive reference (on random
// graphs, and where uncertified policy iteration stalls), the flat Howard
// core and witness Bellman–Ford the engine and the reference share
// (FlatGraph's CSR order, warm-policy rebuilds, value determination,
// scratch reuse), the throughput report, the RS optimizer and the DOT
// critical-loop highlight.
#include <gtest/gtest.h>

#include "testkit/graphs.hpp"
#include "testkit/rng.hpp"
#include "util/assert.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/cycle_ratio.hpp"
#include "graph/cycles.hpp"
#include "graph/digraph.hpp"
#include "gen/topologies.hpp"
#include "graph/dot.hpp"
#include "graph/optimize.hpp"
#include "graph/throughput.hpp"
#include "graph/throughput_engine.hpp"

namespace wp::graph {
namespace {

using testkit::range;
using testkit::min_cycle_ratio_exhaustive;

TEST(Digraph, BasicAccessors) {
  Digraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  const EdgeId e = g.add_edge(a, b, "ab", 2);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.node_name(a), "a");
  EXPECT_EQ(g.find_node("b"), b);
  EXPECT_EQ(g.find_node("zzz"), -1);
  EXPECT_EQ(g.edge(e).relay_stations, 2);
  EXPECT_EQ(g.edge_latency(e), 3);
  EXPECT_EQ(g.out_edges(a).size(), 1u);
  EXPECT_EQ(g.in_edges(b).size(), 1u);
  EXPECT_THROW(g.add_edge(a, 7), wp::ContractViolation);
}

TEST(Digraph, EdgeListsFollowEdgeIdOrder) {
  // Interleaved adds, parallel edges and a self loop: every node's out- and
  // in-edges come back in edge-id order, with or without reserve().
  for (const bool reserved : {false, true}) {
    Digraph g;
    if (reserved) g.reserve(3, 7);
    for (int i = 0; i < 3; ++i) g.add_node("n" + std::to_string(i));
    g.add_edge(0, 1);  // 0
    g.add_edge(2, 0);  // 1
    g.add_edge(0, 1);  // 2
    g.add_edge(1, 1);  // 3
    g.add_edge(0, 2);  // 4
    g.add_edge(1, 0);  // 5
    g.add_edge(2, 0);  // 6
    std::vector<EdgeId> out0, in0, out1, in1;
    for (const EdgeId e : g.out_edges(0)) out0.push_back(e);
    for (const EdgeId e : g.in_edges(0)) in0.push_back(e);
    for (const EdgeId e : g.out_edges(1)) out1.push_back(e);
    for (const EdgeId e : g.in_edges(1)) in1.push_back(e);
    EXPECT_EQ(out0, (std::vector<EdgeId>{0, 2, 4}));
    EXPECT_EQ(in0, (std::vector<EdgeId>{1, 5, 6}));
    EXPECT_EQ(out1, (std::vector<EdgeId>{3, 5}));
    EXPECT_EQ(in1, (std::vector<EdgeId>{0, 2, 3}));
    EXPECT_EQ(g.out_edges(2).size(), 2u);
    EXPECT_EQ(g.in_edges(2).size(), 1u);
    // A copy owns its chains.
    const Digraph copy = g;
    g.add_edge(0, 0);
    EXPECT_EQ(copy.out_edges(0).size(), 3u);
    EXPECT_EQ(g.out_edges(0).size(), 4u);
  }
  Digraph empty;
  empty.add_node("lonely");
  EXPECT_TRUE(empty.out_edges(0).empty());
  EXPECT_TRUE(empty.in_edges(0).empty());
  EXPECT_EQ(empty.out_edges(0).begin(), empty.out_edges(0).end());
}

TEST(Cycles, SelfLoopAndDigon) {
  Digraph g;
  const NodeId a = g.add_node("a");
  const NodeId b = g.add_node("b");
  g.add_edge(a, a, "self");
  g.add_edge(a, b, "ab");
  g.add_edge(b, a, "ba", 1);
  const auto cycles = enumerate_cycles(g);
  ASSERT_EQ(cycles.size(), 2u);
  // One 1-cycle, one 2-cycle.
  int count1 = 0, count2 = 0;
  for (const auto& c : cycles) {
    if (c.processes == 1) ++count1;
    if (c.processes == 2) {
      ++count2;
      EXPECT_EQ(c.relay_stations, 1);
      EXPECT_NEAR(c.throughput(), 2.0 / 3.0, 1e-12);
    }
  }
  EXPECT_EQ(count1, 1);
  EXPECT_EQ(count2, 1);
}

TEST(Cycles, CompleteGraphCountK4) {
  // K4 has 6 digons + 8 triangles + 6 four-cycles = 20 elementary cycles.
  Digraph g;
  for (int i = 0; i < 4; ++i) g.add_node("n" + std::to_string(i));
  for (int u = 0; u < 4; ++u)
    for (int v = 0; v < 4; ++v)
      if (u != v) g.add_edge(u, v);
  EXPECT_EQ(enumerate_cycles(g).size(), 20u);
}

TEST(Cycles, AcyclicGraphHasNone) {
  Digraph g;
  for (int i = 0; i < 5; ++i) g.add_node("n" + std::to_string(i));
  for (int i = 0; i < 4; ++i) g.add_edge(i, i + 1);
  g.add_edge(0, 2);
  g.add_edge(1, 4);
  EXPECT_TRUE(enumerate_cycles(g).empty());
}

TEST(Cycles, ToStringNamesNodes) {
  Digraph g;
  g.add_node("CU");
  g.add_node("IC");
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto cycles = enumerate_cycles(g);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycle_to_string(g, cycles[0]), "CU -> IC -> CU");
}

TEST(CycleRatio, RingFormula) {
  for (int m : {1, 2, 3, 6}) {
    for (int n : {0, 1, 2, 5}) {
      Digraph g = testkit::ring_graph(m, {0});
      g.edge(0).relay_stations = n;
      const double expected =
          static_cast<double>(m) / static_cast<double>(m + n);
      EXPECT_NEAR(min_cycle_ratio_exhaustive(g).ratio, expected, 1e-12);
      EXPECT_NEAR(min_cycle_ratio_howard(g).ratio, expected, 1e-9);
    }
  }
}

TEST(CycleRatio, AcyclicReportsUnitThroughput) {
  Digraph g;
  g.add_node("a");
  g.add_node("b");
  g.add_edge(0, 1, "", 7);
  for (const auto& result :
       {min_cycle_ratio_exhaustive(g), min_cycle_ratio_howard(g)}) {
    EXPECT_FALSE(result.has_cycle);
    EXPECT_DOUBLE_EQ(result.ratio, 1.0);
    EXPECT_TRUE(result.critical_cycle.empty());
  }
}

TEST(CycleRatio, PicksTheWorstLoop) {
  // Two loops sharing a node: 2/(2+0)=1.0 and 3/(3+3)=0.5.
  Digraph g;
  for (int i = 0; i < 4; ++i) g.add_node("n" + std::to_string(i));
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2, "", 1);
  g.add_edge(2, 3, "", 1);
  g.add_edge(3, 1, "", 1);
  const auto result = min_cycle_ratio_howard(g);
  EXPECT_NEAR(result.ratio, 0.5, 1e-9);
  EXPECT_EQ(result.critical_cycle.size(), 3u);
}

TEST(CycleRatio, LargeMagnitudeGraphsDoNotSpinOnFloatNoise) {
  // Regression for the Bellman–Ford relaxation slack. A 4-ring with
  // million-scale tokens and latencies: the edge weights tokens − λ·lat
  // at λ = ratio are huge terms whose true partial sums cancel to zero, so
  // the float residue of walking the ring is ~1e-10 — and with the old
  // absolute 1e-15 slack the probe kept "relaxing" on that residue, burned
  // all n passes, and extracted a spurious negative cycle at the exact
  // ratio (empirically reproduced before the fix). The relative slack,
  // scaled to |tokens| + λ·latency, treats the residue as converged.
  Digraph g;
  long long total_tokens = 0;
  long long total_latency = 0;
  for (int i = 0; i < 4; ++i) g.add_node("n" + std::to_string(i));
  for (int i = 0; i < 4; ++i) {
    const int tokens = i % 3 == 0 ? 2000000 : (i % 3 == 1 ? 0 : 1000000);
    const int rs = (i % 4) * 1000003 + 999999;
    const EdgeId e = g.add_edge(i, (i + 1) % 4, "e" + std::to_string(i), rs);
    g.edge(e).tokens = tokens;
    total_tokens += tokens;
    total_latency += g.edge_latency(e);
  }
  const double expected =
      static_cast<double>(total_tokens) / static_cast<double>(total_latency);

  const auto howard = min_cycle_ratio_howard(g);
  EXPECT_DOUBLE_EQ(howard.ratio, expected);
  EXPECT_EQ(howard.ratio, min_cycle_ratio_exhaustive(g).ratio);

  // The witness Bellman–Ford at λ = ratio must converge (its potentials
  // certify λ) instead of spinning on the residue; meaningfully above the
  // ratio it must still surface the ring as a witness (the slack is
  // noise-proof, not blind).
  const detail::FlatGraph flat(g);
  detail::Potentials at_ratio(flat.num_nodes());
  EXPECT_TRUE(detail::witness_bellman_ford(flat, expected, at_ratio).empty());
  detail::Potentials above(flat.num_nodes());
  const std::vector<EdgeId> witness =
      detail::witness_bellman_ford(flat, expected * (1.0 + 1e-3), above);
  EXPECT_EQ(witness.size(), 4u);
  EXPECT_EQ(detail::exact_cycle_ratio(flat, witness), expected);

  // The incremental engine sees through the same tolerance: a perturbation
  // chain on the huge-latency graph stays bit-identical to fresh solves.
  ThroughputEngine engine(g);
  for (const int rs : {999999, 1000037, 999999, 123456}) {
    Digraph fresh = g;
    fresh.edge(0).relay_stations = rs;
    EXPECT_EQ(engine.throughput({{"e0", rs}}),
              min_cycle_ratio_howard(fresh).ratio)
        << "rs=" << rs;
  }
}

/// The random graph of McrCrossCheck's seed `seed` (3–9 nodes, RS 0–4).
Digraph cross_check_graph(std::uint64_t seed) {
  wp::Rng rng(seed);
  testkit::RandomGraphConfig config;
  config.num_nodes = static_cast<int>(range(rng, 3, 10));
  config.edge_probability = 0.25;
  config.max_relay_stations = 4;
  return testkit::random_digraph(config, rng);
}

class McrCrossCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McrCrossCheck, SolversAgreeOnRandomGraphs) {
  const Digraph g = cross_check_graph(GetParam());
  const auto exhaustive = min_cycle_ratio_exhaustive(g, 500000);
  const auto howard = min_cycle_ratio_howard(g);
  ASSERT_TRUE(exhaustive.has_cycle);
  EXPECT_EQ(howard.ratio, exhaustive.ratio) << "seed " << GetParam();
  EXPECT_EQ(detail::exact_cycle_ratio(detail::FlatGraph(g),
                                      howard.critical_cycle),
            howard.ratio)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Random, McrCrossCheck,
                         ::testing::Range<std::uint64_t>(1, 31));

// ------------------------------------------------------- Howard core

std::vector<EdgeId> edge_ids(Digraph::EdgeList list) {
  return {list.begin(), list.end()};
}

std::vector<EdgeId> csr_out_edges(const detail::FlatGraph& flat, NodeId v) {
  const auto i = static_cast<std::size_t>(v);
  return {flat.out.begin() + flat.out_begin[i],
          flat.out.begin() + flat.out_begin[i + 1]};
}

TEST(FlatGraph, MirrorsEdgesAndOutEdgeOrder) {
  // Parallel edges, a self loop and a node without successors, plus
  // random graphs: the CSR must list each node's out-edges exactly in
  // Digraph::out_edges() order.
  Digraph multi;
  for (int i = 0; i < 4; ++i) multi.add_node("n" + std::to_string(i));
  multi.add_edge(2, 0, "a", 3);
  multi.add_edge(0, 1, "b");
  multi.add_edge(0, 1, "c", 1);
  multi.add_edge(1, 1, "self");
  multi.add_edge(0, 2, "d", 2);
  multi.edge(4).tokens = 2;
  std::vector<Digraph> graphs{multi};
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    wp::Rng rng(seed);
    testkit::RandomGraphConfig config;
    config.num_nodes = static_cast<int>(range(rng, 2, 30));
    config.edge_probability = 0.2;
    graphs.push_back(testkit::random_digraph(config, rng));
  }
  for (const Digraph& g : graphs) {
    const detail::FlatGraph flat(g);
    ASSERT_EQ(flat.num_nodes(), g.num_nodes());
    ASSERT_EQ(flat.num_edges(), g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(flat.edge(e).src, g.edge(e).src);
      EXPECT_EQ(flat.edge(e).dst, g.edge(e).dst);
      EXPECT_EQ(flat.edge(e).tokens, g.edge(e).tokens);
      EXPECT_EQ(flat.edge(e).latency, g.edge_latency(e));
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      EXPECT_EQ(csr_out_edges(flat, v), edge_ids(g.out_edges(v)))
          << "node " << v;
  }
}

TEST(HowardCore, UnfitWarmPoliciesAreRebuilt) {
  wp::Rng rng(17);
  testkit::RandomGraphConfig config;
  config.num_nodes = 9;
  config.edge_probability = 0.3;
  config.max_relay_stations = 4;
  const Digraph g = testkit::random_digraph(config, rng);
  const detail::FlatGraph flat(g);
  const double expected = min_cycle_ratio_exhaustive(g).ratio;

  // Foreign edges: node v's entry names an edge that leaves another node.
  std::vector<EdgeId> foreign(static_cast<std::size_t>(g.num_nodes()), -1);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (EdgeId e = 0; e < g.num_edges(); ++e)
      if (g.edge(e).src != v) foreign[static_cast<std::size_t>(v)] = e;
  const std::vector<std::vector<EdgeId>> unfit{
      {},                                                       // empty
      std::vector<EdgeId>(static_cast<std::size_t>(g.num_nodes()) + 3, 0),
      std::vector<EdgeId>(static_cast<std::size_t>(g.num_nodes()),
                          g.num_edges()),                       // out of range
      foreign};
  for (std::vector<EdgeId> policy : unfit) {
    detail::HowardScratch scratch;
    const CycleRatioResult result =
        detail::howard_policy_iteration(flat, policy, scratch);
    EXPECT_EQ(result.ratio, expected);
    EXPECT_EQ(detail::exact_cycle_ratio(flat, result.critical_cycle),
              expected);
    // The policy it hands back fits the graph: one own out-edge per node.
    ASSERT_EQ(policy.size(), static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const EdgeId e = policy[static_cast<std::size_t>(v)];
      if (g.out_edges(v).empty()) {
        EXPECT_EQ(e, -1);
      } else {
        ASSERT_GE(e, 0);
        EXPECT_EQ(g.edge(e).src, v);
      }
    }
  }
}

TEST(HowardCore, DeadEndWarmPolicyRetriesFromTheDefault) {
  // 0 <-> 1 is the only cycle; both nodes also lead into the sink 2. The
  // warm policy fits the graph but routes every chain into the sink, so
  // its policy graph has no cycle: the core must rebuild and retry.
  Digraph g;
  for (int i = 0; i < 3; ++i) g.add_node("n" + std::to_string(i));
  g.add_edge(0, 1, "", 1);
  g.add_edge(1, 0, "", 2);
  const EdgeId to_sink_0 = g.add_edge(0, 2);
  const EdgeId to_sink_1 = g.add_edge(1, 2);
  const detail::FlatGraph flat(g);
  std::vector<EdgeId> policy{to_sink_0, to_sink_1, -1};
  detail::HowardScratch scratch;
  const CycleRatioResult result =
      detail::howard_policy_iteration(flat, policy, scratch);
  EXPECT_EQ(result.ratio, min_cycle_ratio_exhaustive(g).ratio);
  EXPECT_EQ(result.ratio, 2.0 / 5.0);
  EXPECT_EQ(result.critical_cycle.size(), 2u);
  EXPECT_EQ(policy, (std::vector<EdgeId>{0, 1, -1}));
}

TEST(HowardCore, NodesOffTheCriticalCycleKeepInfiniteValues) {
  // Critical ring A = {0,1,2} (3 tokens / 6 cycles) and a slower ring
  // B = {3,4} (2 / 2). A can reach B but B never reaches A; tail 5 feeds A
  // and tail 6 feeds B. Value determination anchors A at 0: A and node 5
  // get finite values, while B and node 6 must stay +inf (a non-critical
  // policy cycle is not an anchor) and so never drive an improvement.
  Digraph g;
  for (int i = 0; i < 7; ++i) g.add_node("n" + std::to_string(i));
  g.add_edge(0, 1, "", 1);
  g.add_edge(1, 2, "", 1);
  g.add_edge(2, 0, "", 1);
  g.add_edge(3, 4);
  g.add_edge(4, 3);
  g.add_edge(0, 3);  // A -> B
  g.add_edge(5, 0);
  g.add_edge(6, 3);
  const detail::FlatGraph flat(g);
  std::vector<EdgeId> policy;
  detail::HowardScratch scratch;
  const CycleRatioResult result =
      detail::howard_policy_iteration(flat, policy, scratch);
  EXPECT_EQ(result.ratio, min_cycle_ratio_exhaustive(g).ratio);
  EXPECT_EQ(result.ratio, 0.5);
  const auto& value = scratch.value;
  ASSERT_EQ(value.size(), 7u);
  for (const NodeId v : {0, 1, 2, 5})
    EXPECT_TRUE(std::isfinite(value[static_cast<std::size_t>(v)])) << v;
  for (const NodeId v : {3, 4, 6})
    EXPECT_EQ(value[static_cast<std::size_t>(v)],
              std::numeric_limits<double>::infinity())
        << v;
  // 5 -> 0 costs 1 token and 1 cycle at r = 0.5; 0 is an anchor.
  EXPECT_EQ(value[5], 1.0 - 0.5 * 1.0);
}

TEST(HowardCore, WitnessDescentCorrectsAStalledPolicyIteration) {
  // McrCrossCheck's seed-13 graph: a 5-ring 0→1→2→3→4→0 plus chords.
  // Policy iteration with one global ratio stalls on the ring through the
  // slow 0→1 edge (5 tokens / 15 cycles) and never switches to the chord
  // cycle 0→1→3→4→0 through the same edge, the minimum at 4/13.
  // Uncertified, the core answers above the minimum; the certified
  // solver's witness descent lands on it.
  Digraph g;
  for (int i = 0; i < 5; ++i) g.add_node("n" + std::to_string(i));
  g.add_edge(0, 1, "", 3);
  g.add_edge(1, 2, "", 4);
  g.add_edge(2, 3, "", 0);
  g.add_edge(3, 4, "", 1);
  g.add_edge(4, 0, "", 2);
  g.add_edge(0, 1, "", 1);
  g.add_edge(1, 3, "", 3);
  g.add_edge(2, 3, "", 0);
  const detail::FlatGraph flat(g);
  const CycleRatioResult exhaustive = min_cycle_ratio_exhaustive(g);

  std::vector<EdgeId> policy;
  detail::HowardScratch scratch;
  const CycleRatioResult stalled =
      detail::howard_policy_iteration(flat, policy, scratch);
  EXPECT_EQ(exhaustive.ratio, 4.0 / 13.0);
  EXPECT_EQ(stalled.ratio, 5.0 / 15.0);
  EXPECT_EQ(stalled.critical_cycle.size(), 5u);

  CycleRatioResult descended = stalled;
  detail::Potentials potentials(flat.num_nodes());
  detail::witness_descent(flat, descended, potentials);
  EXPECT_EQ(descended.ratio, exhaustive.ratio);

  const CycleRatioResult howard = min_cycle_ratio_howard(g);
  EXPECT_EQ(howard.ratio, exhaustive.ratio);
  EXPECT_EQ(detail::exact_cycle_ratio(flat, howard.critical_cycle),
            exhaustive.ratio);
}

TEST(HowardCore, OnePolicyAndScratchAcrossRelayStationMutations) {
  // The engine's usage: one FlatGraph whose latencies change in place, one
  // policy and one scratch carried from solve to solve. Reusing the
  // scratch must not change a bit against a fresh one, and the answer is
  // the core's uncertified contract: the exact ratio of a real cycle,
  // never below the exhaustive minimum (a warm policy can stall above it;
  // the callers' certificates catch that).
  int steps = 0;
  int exact = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    wp::Rng rng(seed * 31);
    testkit::RandomGraphConfig config;
    config.num_nodes = static_cast<int>(range(rng, 4, 11));
    config.edge_probability = 0.3;
    config.max_relay_stations = 4;
    Digraph g = testkit::random_digraph(config, rng);
    detail::FlatGraph flat(g);
    std::vector<EdgeId> policy;
    detail::HowardScratch scratch;
    for (int step = 0; step < 25; ++step, ++steps) {
      const auto e = static_cast<EdgeId>(
          rng.below(static_cast<std::uint64_t>(g.num_edges())));
      const int rs = static_cast<int>(rng.below(6));
      g.edge(e).relay_stations = rs;
      flat.edge(e).latency = 1 + rs;

      std::vector<EdgeId> fresh_policy = policy;
      detail::HowardScratch fresh_scratch;
      const CycleRatioResult fresh =
          detail::howard_policy_iteration(flat, fresh_policy, fresh_scratch);
      const CycleRatioResult reused =
          detail::howard_policy_iteration(flat, policy, scratch);
      ASSERT_EQ(reused.ratio, fresh.ratio)
          << "seed " << seed << " step " << step;
      EXPECT_EQ(reused.critical_cycle, fresh.critical_cycle);
      EXPECT_EQ(policy, fresh_policy);

      const double minimum = min_cycle_ratio_exhaustive(g, 500000).ratio;
      EXPECT_GE(reused.ratio, minimum);
      const std::vector<EdgeId>& cycle = reused.critical_cycle;
      ASSERT_FALSE(cycle.empty());
      for (std::size_t k = 0; k < cycle.size(); ++k)
        EXPECT_EQ(g.edge(cycle[k]).dst,
                  g.edge(cycle[(k + 1) % cycle.size()]).src);
      EXPECT_EQ(detail::exact_cycle_ratio(flat, reused.critical_cycle),
                reused.ratio);
      if (reused.ratio == minimum) ++exact;
      // The certified solver is exact on the same configuration.
      EXPECT_EQ(min_cycle_ratio_howard(g).ratio, minimum);
    }
  }
  EXPECT_GT(exact, steps / 2);
}

TEST(Throughput, ReportSortsWorstFirst) {
  Digraph g = testkit::ring_graph(2, {1, 0});  // 2-ring with 1 RS total
  g.add_node("solo");
  g.add_edge(2, 2, "self");  // Th 1.0 self-loop
  const auto report = analyze_throughput(g);
  ASSERT_EQ(report.loops.size(), 2u);
  EXPECT_NEAR(report.loops[0].throughput, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(report.loops[0].m, 2);
  EXPECT_EQ(report.loops[0].n, 1);
  EXPECT_NEAR(report.system_throughput, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(min_cycle_ratio_howard(g).ratio, report.system_throughput);
}

/// The WP1 objective: min cycle ratio of a configured copy of `g`, with
/// each connection label carrying the assignment's relay stations.
RsObjective min_ratio_of(const Digraph& g) {
  return [g](const RsAssignment& assignment) {
    Digraph configured = g;
    for (EdgeId e = 0; e < configured.num_edges(); ++e) {
      const auto it = assignment.find(configured.edge(e).label);
      if (it != assignment.end())
        configured.edge(e).relay_stations = it->second;
    }
    return min_cycle_ratio_howard(configured).ratio;
  };
}

TEST(Optimizer, ExhaustiveFindsBestRelief) {
  // Ring of 3 with demand 2 RS each; relieving one edge to 0 is best and
  // relieving two is better still.
  Digraph g = testkit::ring_graph(3, {0});
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    g.edge(e).label = "c" + std::to_string(e);
  RsOptimizeProblem problem;
  for (int i = 0; i < 3; ++i) {
    problem.demand["c" + std::to_string(i)] = 2;
    problem.relieved["c" + std::to_string(i)] = 0;
  }
  problem.max_relieved = 2;
  const auto result = optimize_rs_exhaustive(problem, min_ratio_of(g));
  EXPECT_EQ(result.relieved_connections.size(), 2u);
  EXPECT_NEAR(result.objective, 3.0 / 5.0, 1e-9);  // 3/(3+2)
}

TEST(Optimizer, ZeroBudgetKeepsDemand) {
  Digraph g = testkit::ring_graph(2, {0});
  g.edge(0).label = "x";
  g.edge(1).label = "y";
  RsOptimizeProblem problem;
  problem.demand = {{"x", 1}, {"y", 1}};
  problem.relieved = {{"x", 0}, {"y", 0}};
  problem.max_relieved = 0;
  const auto result = optimize_rs_exhaustive(problem, min_ratio_of(g));
  EXPECT_TRUE(result.relieved_connections.empty());
  EXPECT_NEAR(result.objective, 0.5, 1e-9);
}

/// The edges to_dot() paints red, by edge id (the edge lines follow the
/// node lines in edge-id order).
std::vector<EdgeId> red_edges(const std::string& dot) {
  std::vector<EdgeId> red;
  EdgeId e = 0;
  std::size_t line_start = 0;
  while (line_start < dot.size()) {
    const std::size_t line_end = dot.find('\n', line_start);
    const std::string line = dot.substr(line_start, line_end - line_start);
    line_start = line_end == std::string::npos ? dot.size() : line_end + 1;
    if (line.find(" -> ") == std::string::npos) continue;
    if (line.find("color=red") != std::string::npos) red.push_back(e);
    ++e;
  }
  return red;
}

TEST(Dot, ContainsNodesEdgesAndCriticalHighlight) {
  Digraph ring = testkit::ring_graph(2, {1});
  ring.edge(0).label = "hot";
  const std::string dot = to_dot(ring, {"title", true, true});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("p0"), std::string::npos);
  EXPECT_NE(dot.find("hot (1 RS)"), std::string::npos);
  EXPECT_EQ(red_edges(dot), (std::vector<EdgeId>{0, 1}));

  // On the McrCrossCheck graphs the red edges form exactly one cycle, and
  // its ratio is the exhaustive minimum.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Digraph g = cross_check_graph(seed);
    const std::vector<EdgeId> red = red_edges(to_dot(g, {"", true, true}));
    ASSERT_FALSE(red.empty()) << "seed " << seed;
    // One cycle: walking successor red edges from the first returns to it
    // after visiting every red edge exactly once.
    std::vector<EdgeId> walk{red.front()};
    while (walk.size() <= red.size()) {
      const NodeId at = g.edge(walk.back()).dst;
      std::vector<EdgeId> next;
      for (const EdgeId e : red)
        if (g.edge(e).src == at) next.push_back(e);
      ASSERT_EQ(next.size(), 1u) << "seed " << seed;
      if (next.front() == walk.front()) break;
      walk.push_back(next.front());
    }
    std::vector<EdgeId> sorted_walk = walk;
    std::sort(sorted_walk.begin(), sorted_walk.end());
    EXPECT_EQ(sorted_walk, red) << "seed " << seed;
    EXPECT_EQ(detail::exact_cycle_ratio(detail::FlatGraph(g), walk),
              min_cycle_ratio_exhaustive(g, 500000).ratio)
        << "seed " << seed;
  }
}

TEST(RandomGraphs, RingGraphShape) {
  const Digraph g = testkit::ring_graph(5, {1, 2});
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.num_edges(), 5);
  // Pattern 1,2 repeats cyclically.
  EXPECT_EQ(g.edge(0).relay_stations, 1);
  EXPECT_EQ(g.edge(1).relay_stations, 2);
  EXPECT_EQ(g.edge(4).relay_stations, 1);
}

TEST(RandomGraphs, EnsuresCycleWhenAsked) {
  wp::Rng rng(7);
  testkit::RandomGraphConfig config;
  config.num_nodes = 6;
  config.edge_probability = 0.0;
  config.ensure_cycle = true;
  const Digraph g = testkit::random_digraph(config, rng);
  EXPECT_FALSE(enumerate_cycles(g).empty());
}

}  // namespace
}  // namespace wp::graph
