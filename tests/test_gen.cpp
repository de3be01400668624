// Topology ensemble subsystem tests: per-family structural invariants,
// fixed-seed determinism, the strong-connectivity repair pass, the
// acyclic-result contract of the refolded ER generator, topology dressing
// (instance + runnable netlist), and sequential-vs-pooled bitwise equality
// of the full ensemble pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/netlist_text.hpp"
#include "gen/ensemble.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/cycles.hpp"
#include "graph/throughput.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace wp::gen {
namespace {

bool same_graph(const graph::Digraph& a, const graph::Digraph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges())
    return false;
  for (graph::NodeId n = 0; n < a.num_nodes(); ++n)
    if (a.node_name(n) != b.node_name(n)) return false;
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    const auto& ea = a.edge(e);
    const auto& eb = b.edge(e);
    if (ea.src != eb.src || ea.dst != eb.dst || ea.label != eb.label ||
        ea.relay_stations != eb.relay_stations || ea.tokens != eb.tokens)
      return false;
  }
  return true;
}

TopologyConfig config_for(TopologyFamily family, int num_nodes) {
  TopologyConfig config;
  config.family = family;
  config.num_nodes = num_nodes;
  return config;
}

TEST(Topologies, DeterministicUnderFixedSeed) {
  for (const TopologyFamily family :
       {TopologyFamily::kBarabasiAlbert, TopologyFamily::kWattsStrogatz,
        TopologyFamily::kMesh, TopologyFamily::kClusteredErdosRenyi}) {
    const TopologyConfig config = config_for(family, 18);
    Rng rng_a(42), rng_b(42), rng_c(43);
    const graph::Digraph a = generate_topology(config, rng_a);
    const graph::Digraph b = generate_topology(config, rng_b);
    const graph::Digraph c = generate_topology(config, rng_c);
    EXPECT_TRUE(same_graph(a, b)) << family_name(family);
    // A different seed must vary the result (mesh wiring is fixed, but its
    // relay-station annotations are seeded).
    EXPECT_FALSE(same_graph(a, c)) << family_name(family);
  }
}

TEST(Topologies, AllFamiliesStronglyConnectedAndLabeled) {
  for (const TopologyFamily family :
       {TopologyFamily::kBarabasiAlbert, TopologyFamily::kWattsStrogatz,
        TopologyFamily::kMesh, TopologyFamily::kClusteredErdosRenyi}) {
    Rng rng(7);
    const graph::Digraph g = generate_topology(config_for(family, 20), rng);
    EXPECT_TRUE(is_strongly_connected(g)) << family_name(family);
    // Unique edge labels: they key nets, demand maps and CSV rows.
    std::vector<std::string> labels;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
      labels.push_back(g.edge(e).label);
    std::sort(labels.begin(), labels.end());
    EXPECT_EQ(std::unique(labels.begin(), labels.end()), labels.end())
        << family_name(family);
    // Relay-station annotations within the configured bound.
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_GE(g.edge(e).relay_stations, 0);
      EXPECT_LE(g.edge(e).relay_stations, 3);
    }
  }
}

TEST(BarabasiAlbert, HeavyDegreeTail) {
  TopologyConfig config = config_for(TopologyFamily::kBarabasiAlbert, 64);
  config.ba_attach = 2;
  Rng rng(11);
  const graph::Digraph g = generate_topology(config, rng);
  const std::vector<int> degrees = undirected_degrees(g);
  const double mean =
      std::accumulate(degrees.begin(), degrees.end(), 0.0) /
      static_cast<double>(degrees.size());
  const int max_degree = *std::max_element(degrees.begin(), degrees.end());
  // Preferential attachment grows hubs far above the mean degree — the
  // scale-free signature a homogeneous family never shows.
  EXPECT_GE(static_cast<double>(max_degree), 2.5 * mean);
}

TEST(WattsStrogatz, LowRewireKeepsLatticeClustering) {
  TopologyConfig ws = config_for(TopologyFamily::kWattsStrogatz, 48);
  ws.ws_neighbors = 6;
  ws.ws_rewire_probability = 0.05;
  Rng rng_ws(3);
  const graph::Digraph g_ws = generate_topology(ws, rng_ws);

  // ER reference at matched undirected density.
  TopologyConfig er = config_for(TopologyFamily::kClusteredErdosRenyi, 48);
  er.er_clusters = 1;
  er.er_intra_probability =
      static_cast<double>(g_ws.num_edges()) / (48.0 * 47.0);
  Rng rng_er(3);
  const graph::Digraph g_er = generate_topology(er, rng_er);

  const double c_ws = average_clustering(g_ws);
  const double c_er = average_clustering(g_er);
  // Ring-lattice clustering survives a 5% rewire; ER has essentially none.
  EXPECT_GT(c_ws, 0.3);
  EXPECT_GT(c_ws, 2.0 * c_er);
}

TEST(Mesh, TorusIsRegularMeshHasBoundary) {
  TopologyConfig torus = config_for(TopologyFamily::kMesh, 25);
  torus.mesh_rows = 5;
  torus.mesh_cols = 5;
  torus.mesh_torus = true;
  Rng rng(1);
  const graph::Digraph g_torus = generate_topology(torus, rng);
  EXPECT_EQ(g_torus.num_nodes(), 25);
  EXPECT_EQ(g_torus.num_edges(), 100);  // 50 undirected links, all paired
  for (graph::NodeId n = 0; n < g_torus.num_nodes(); ++n) {
    EXPECT_EQ(g_torus.out_edges(n).size(), 4u);
    EXPECT_EQ(g_torus.in_edges(n).size(), 4u);
  }

  TopologyConfig mesh = config_for(TopologyFamily::kMesh, 12);
  mesh.mesh_rows = 3;
  mesh.mesh_cols = 4;
  Rng rng2(1);
  const graph::Digraph g_mesh = generate_topology(mesh, rng2);
  // 2*(3*3 + 2*4) = 34 directed edges; corners keep undirected degree 2.
  EXPECT_EQ(g_mesh.num_edges(), 34);
  const std::vector<int> degrees = undirected_degrees(g_mesh);
  EXPECT_EQ(*std::min_element(degrees.begin(), degrees.end()), 2);
  EXPECT_EQ(*std::max_element(degrees.begin(), degrees.end()), 4);
  EXPECT_TRUE(is_strongly_connected(g_mesh));
}

TEST(Mesh, DerivesNearSquareFactorization) {
  Rng rng(5);
  const graph::Digraph g =
      generate_topology(config_for(TopologyFamily::kMesh, 20), rng);  // 4x5
  EXPECT_EQ(g.num_nodes(), 20);
  EXPECT_EQ(g.num_edges(), 2 * (4 * 4 + 3 * 5));
}

TEST(ClusteredEr, IntraClusterDenserThanInter) {
  TopologyConfig config =
      config_for(TopologyFamily::kClusteredErdosRenyi, 40);
  config.er_clusters = 4;
  config.er_intra_probability = 0.4;
  config.er_inter_probability = 0.02;
  config.ensure_strongly_connected = false;
  Rng rng(17);
  const graph::Digraph g = generate_topology(config, rng);
  auto cluster_of = [](int i) { return i / 10; };  // contiguous blocks of 10
  double intra = 0, inter = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& data = g.edge(e);
    (cluster_of(data.src) == cluster_of(data.dst) ? intra : inter) += 1;
  }
  const double intra_pairs = 4.0 * 10 * 9;
  const double inter_pairs = 40.0 * 39 - intra_pairs;
  EXPECT_GT(intra / intra_pairs, 5.0 * (inter / inter_pairs));
}

TEST(StrongConnectivity, RepairClosesTheCondensation) {
  TopologyConfig config =
      config_for(TopologyFamily::kClusteredErdosRenyi, 24);
  config.er_clusters = 4;
  config.er_intra_probability = 0.15;
  config.er_inter_probability = 0.0;  // islands: repair must bridge them
  config.ensure_strongly_connected = false;
  Rng rng(9);
  graph::Digraph g = generate_topology(config, rng);
  ASSERT_FALSE(is_strongly_connected(g));
  const int before = g.num_edges();
  make_strongly_connected(g, rng, 2);
  EXPECT_TRUE(is_strongly_connected(g));
  EXPECT_GT(g.num_edges(), before);
  for (graph::NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_GE(g.out_edges(n).size(), 1u);
    EXPECT_GE(g.in_edges(n).size(), 1u);
  }
}

TEST(SccHelpers, ComponentsOfTwoRingsAndABridge) {
  graph::Digraph g;
  for (int i = 0; i < 6; ++i) g.add_node("n" + std::to_string(i));
  for (int i = 0; i < 3; ++i) g.add_edge(i, (i + 1) % 3);
  for (int i = 3; i < 6; ++i) g.add_edge(i, 3 + (i + 1 - 3) % 3);
  g.add_edge(0, 3);  // one-way bridge
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 2);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[3], scc.component[5]);
  EXPECT_NE(scc.component[0], scc.component[3]);
  EXPECT_FALSE(is_strongly_connected(g));
}

// Satellite regression: the refolded ER generator's explicit contract —
// ensure_cycle=false may yield an acyclic digraph, and every downstream
// min-cycle-ratio path must report Th 1.0 instead of throwing.
TEST(RandomDigraph, AcyclicResultContract) {
  Rng rng(5);
  RandomGraphConfig config;
  config.num_nodes = 6;
  config.edge_probability = 0.0;
  config.ensure_cycle = false;
  const graph::Digraph g = random_digraph(config, rng);
  EXPECT_TRUE(enumerate_cycles(g).empty());
  for (const auto& result :
       {graph::min_cycle_ratio_exhaustive(g), graph::min_cycle_ratio_lawler(g),
        graph::min_cycle_ratio_howard(g)}) {
    EXPECT_FALSE(result.has_cycle);
    EXPECT_DOUBLE_EQ(result.ratio, 1.0);
    EXPECT_TRUE(result.critical_cycle.empty());
  }
  EXPECT_DOUBLE_EQ(graph::system_throughput(g), 1.0);
  const auto report = graph::analyze_throughput(g);
  EXPECT_TRUE(report.loops.empty());
  EXPECT_DOUBLE_EQ(report.system_throughput, 1.0);
}

TEST(RandomDigraph, EnsureCycleStillGuaranteesOne) {
  Rng rng(7);
  RandomGraphConfig config;
  config.num_nodes = 6;
  config.edge_probability = 0.0;
  config.ensure_cycle = true;
  EXPECT_FALSE(enumerate_cycles(random_digraph(config, rng)).empty());
}

// ---------------------------------------------------------------- dressing

TEST(Dressing, InstanceMirrorsTopologyAndRespectsDistributions) {
  Rng rng(21);
  TopologyConfig topo_config =
      config_for(TopologyFamily::kClusteredErdosRenyi, 12);
  topo_config.er_clusters = 3;
  const graph::Digraph topology = generate_topology(topo_config, rng);

  SystemConfig config;
  config.name = "dress12";
  config.blocks.min_area_mm2 = 1.0;
  config.blocks.max_area_mm2 = 4.0;
  config.blocks.min_aspect = 0.8;
  config.blocks.max_aspect = 1.25;
  const GeneratedSystem sys = dress_topology(topology, config, rng);

  ASSERT_EQ(sys.instance.blocks.size(),
            static_cast<std::size_t>(topology.num_nodes()));
  ASSERT_EQ(sys.instance.nets.size(),
            static_cast<std::size_t>(topology.num_edges()));
  for (graph::NodeId n = 0; n < topology.num_nodes(); ++n) {
    const auto& block = sys.instance.blocks[static_cast<std::size_t>(n)];
    EXPECT_EQ(block.name, topology.node_name(n));
    const double area = block.width * block.height;
    const double aspect = block.width / block.height;
    EXPECT_GE(area, 1.0 - 1e-9);
    EXPECT_LE(area, 4.0 + 1e-9);
    EXPECT_GE(aspect, 0.8 - 1e-9);
    EXPECT_LE(aspect, 1.25 + 1e-9);
  }
  for (graph::EdgeId e = 0; e < topology.num_edges(); ++e) {
    const auto& net = sys.instance.nets[static_cast<std::size_t>(e)];
    EXPECT_EQ(net.connection, topology.edge(e).label);
    EXPECT_EQ(net.src_block, topology.edge(e).src);
    EXPECT_EQ(net.dst_block, topology.edge(e).dst);
  }
}

TEST(Dressing, NetlistParsesIntoARunnableSystem) {
  Rng rng(33);
  const graph::Digraph topology = generate_topology(
      config_for(TopologyFamily::kBarabasiAlbert, 14), rng);
  SystemConfig config;
  config.name = "ba14";
  const GeneratedSystem sys = dress_topology(topology, config, rng);

  const ParsedSystem parsed = parse_system(sys.netlist, default_registry());
  EXPECT_EQ(parsed.name, "ba14");
  EXPECT_EQ(parsed.spec.process_names().size(),
            static_cast<std::size_t>(topology.num_nodes()));
  ASSERT_EQ(parsed.spec.channels().size(),
            static_cast<std::size_t>(topology.num_edges()));
  for (graph::EdgeId e = 0; e < topology.num_edges(); ++e) {
    const auto& channel =
        parsed.spec.channels()[static_cast<std::size_t>(e)];
    EXPECT_EQ(channel.connection, topology.edge(e).label);
    EXPECT_EQ(channel.from, topology.node_name(topology.edge(e).src));
    EXPECT_EQ(channel.to, topology.node_name(topology.edge(e).dst));
    EXPECT_EQ(channel.relay_stations, topology.edge(e).relay_stations);
  }
}

TEST(Dressing, SupportsFullWidthHubs) {
  // A hub with in-degree 32 — the InputMask-width limit dress_topology
  // enforces — must dress into a netlist that actually instantiates
  // (regression: the Moore mask sampler overflowed at exactly 32 inputs).
  graph::Digraph star;
  star.add_node("hub");
  for (int i = 0; i < 32; ++i) {
    const graph::NodeId leaf = star.add_node("leaf" + std::to_string(i));
    star.add_edge(leaf, 0, "in" + std::to_string(i));
    star.add_edge(0, leaf, "out" + std::to_string(i));
  }
  Rng rng(2);
  const GeneratedSystem sys = dress_topology(star, SystemConfig{}, rng);
  const ParsedSystem parsed = parse_system(sys.netlist, default_registry());
  EXPECT_NO_THROW(parsed.spec.instantiate("hub"));
}

TEST(Dressing, RejectsUndressableTopologies) {
  graph::Digraph dangling;
  dangling.add_node("a");
  dangling.add_node("b");
  dangling.add_edge(0, 1, "e0");
  Rng rng(1);
  EXPECT_THROW(dress_topology(dangling, SystemConfig{}, rng),
               ContractViolation);
}

// ---------------------------------------------------------------- ensemble

EnsembleConfig small_ensemble() {
  EnsembleConfig config;
  config.seed = 77;
  config.samples_per_family = 3;
  config.anneal.iterations = 300;

  FamilySpec ba;
  ba.name = "ba-10";
  ba.topology = config_for(TopologyFamily::kBarabasiAlbert, 10);
  config.families.push_back(ba);

  FamilySpec mesh;
  mesh.name = "mesh-3x3";
  mesh.topology = config_for(TopologyFamily::kMesh, 9);
  config.families.push_back(mesh);
  return config;
}

TEST(Ensemble, SequentialAndPooledAreBitIdentical) {
  const EnsembleConfig config = small_ensemble();
  const EnsembleReport sequential = run_ensemble_sequential(config);
  ThreadPool pool(2);
  const EnsembleReport pooled = run_ensemble(config, &pool);
  ASSERT_EQ(sequential.samples.size(), 6u);
  EXPECT_TRUE(sequential.samples == pooled.samples);
  ASSERT_EQ(pooled.families.size(), 2u);
  for (std::size_t f = 0; f < 2; ++f) {
    EXPECT_EQ(sequential.families[f].th_mean, pooled.families[f].th_mean);
    EXPECT_EQ(sequential.families[f].th_p95, pooled.families[f].th_p95);
    EXPECT_EQ(sequential.families[f].rs_mean, pooled.families[f].rs_mean);
  }
}

TEST(Ensemble, DeterministicAcrossRunsAndSane) {
  const EnsembleConfig config = small_ensemble();
  const EnsembleReport a = run_ensemble_sequential(config);
  const EnsembleReport b = run_ensemble_sequential(config);
  EXPECT_TRUE(a.samples == b.samples);
  for (const auto& s : a.samples) {
    EXPECT_GT(s.throughput, 0.0);
    EXPECT_LE(s.throughput, 1.0);
    EXPECT_GT(s.nodes, 0);
    EXPECT_GT(s.edges, 0);
    EXPECT_GE(s.cycles, 1);  // strongly connected => at least one loop
    EXPECT_GE(s.total_rs, 0);
    EXPECT_GT(s.area, 0.0);
  }
  // Family stats reflect their sample slice.
  const auto& family = a.families[0];
  EXPECT_EQ(family.samples, 3u);
  EXPECT_GE(family.th_max, family.th_median);
  EXPECT_GE(family.th_median, family.th_min);
  EXPECT_GE(family.th_p95, family.th_median);
}

TEST(Ensemble, CycleCapRecordsOverflowAsUncounted) {
  EnsembleConfig config = small_ensemble();
  config.families.resize(1);  // ba-10 has well over one elementary cycle
  config.samples_per_family = 1;
  config.max_cycle_enumeration = 1;
  const EnsembleReport report = run_ensemble_sequential(config);
  EXPECT_EQ(report.samples[0].cycles, -1);
  EXPECT_EQ(report.families[0].cycles_counted, 0u);
  EXPECT_DOUBLE_EQ(report.families[0].cycles_mean, 0.0);
}

TEST(Ensemble, SimulateModeIsDeterministicAndEquivalent) {
  EnsembleConfig config = small_ensemble();
  config.families.resize(1);  // ba-10 only, for wall-clock
  config.anneal.iterations = 150;
  config.simulate.enabled = true;
  config.simulate.golden_cycles = 96;
  config.simulate.wp_cycles = 384;

  const EnsembleReport sequential = run_ensemble_sequential(config);
  ThreadPool pool(2);
  const EnsembleReport pooled = run_ensemble(config, &pool);
  EXPECT_TRUE(sequential.samples == pooled.samples);

  for (const auto& s : sequential.samples) {
    EXPECT_TRUE(s.simulated);
    EXPECT_TRUE(s.sim_ok);  // WP runs τ-equivalent to the cached golden
    EXPECT_GT(s.th_wp1_sim, 0.0);
    EXPECT_LE(s.th_wp1_sim, 1.0);
    // The paper's ordering: the WP2 oracle never loses to WP1.
    EXPECT_GE(s.th_wp2_sim + 1e-9, s.th_wp1_sim);
  }
  // One golden run per distinct netlist, shared by WP1 and WP2.
  EXPECT_EQ(sequential.sim_golden_runs, sequential.samples.size());
  ASSERT_EQ(sequential.families.size(), 1u);
  EXPECT_GT(sequential.families[0].th_wp2_sim_mean, 0.0);
  EXPECT_EQ(sequential.families[0].sim_failures, 0u);
}

TEST(Ensemble, SimulateOffLeavesSimColumnsInert) {
  EnsembleConfig config = small_ensemble();
  config.families.resize(1);
  config.samples_per_family = 1;
  const EnsembleReport report = run_ensemble_sequential(config);
  EXPECT_FALSE(report.samples[0].simulated);
  EXPECT_EQ(report.samples[0].th_wp2_sim, 0.0);
  EXPECT_EQ(report.sim_golden_runs, 0u);
  EXPECT_DOUBLE_EQ(report.families[0].th_wp2_sim_mean, 0.0);
}

TEST(Ensemble, FamilySeedsAreIndependentOfListPosition) {
  // Seeds are keyed on the family name, so filtering or reordering the
  // family list (bench_ensembles --families) reproduces the full run's
  // rows bit for bit.
  const EnsembleConfig both = small_ensemble();
  EnsembleConfig only_second = both;
  only_second.families = {both.families[1]};
  const EnsembleReport full = run_ensemble_sequential(both);
  const EnsembleReport filtered = run_ensemble_sequential(only_second);
  const auto per_family =
      static_cast<std::size_t>(both.samples_per_family);
  ASSERT_EQ(filtered.samples.size(), per_family);
  for (std::size_t i = 0; i < per_family; ++i)
    EXPECT_TRUE(filtered.samples[i] == full.samples[per_family + i]) << i;
}

TEST(Ensemble, PerFamilyAnnealIterationsOverride) {
  // Override equal to the global budget: bit-identical samples.
  EnsembleConfig base = small_ensemble();
  base.families.resize(1);
  base.samples_per_family = 2;
  EnsembleConfig overridden = base;
  overridden.anneal.iterations = 9999;  // would change results...
  overridden.families[0].anneal_iterations =
      base.anneal.iterations;  // ...but the override wins
  const EnsembleReport a = run_ensemble_sequential(base);
  const EnsembleReport b = run_ensemble_sequential(overridden);
  EXPECT_TRUE(a.samples == b.samples);

  // A genuinely smaller budget changes the annealed placement.
  EnsembleConfig smaller = base;
  smaller.families[0].anneal_iterations = 50;
  const EnsembleReport c = run_ensemble_sequential(smaller);
  EXPECT_FALSE(a.samples == c.samples);
}

TEST(Ensemble, ScaleFamiliesSequentialAndPooledAgree) {
  // The 256–1024-node scale substrate: sequential ≡ pooled must hold at
  // these sizes too. Budgets are test-sized: the full-horizon runs live
  // in bench_ensembles.
  EnsembleConfig config;
  config.seed = 91;
  config.samples_per_family = 1;
  config.max_cycle_enumeration = 0;  // Johnson on 1024 nodes is a bench
  for (FamilySpec family : scale_family_specs()) {
    if (family.name == "ba-512" || family.name == "mesh-16x32") continue;
    family.anneal_iterations = 60;
    config.families.push_back(std::move(family));
  }
  ASSERT_EQ(config.families.size(), 4u);  // 256 + 1024, ba + mesh

  const EnsembleReport sequential = run_ensemble_sequential(config);
  ThreadPool pool(3);
  const EnsembleReport pooled = run_ensemble(config, &pool);
  EXPECT_TRUE(sequential.samples == pooled.samples);
  for (const auto& s : sequential.samples) {
    EXPECT_GT(s.throughput, 0.0);
    EXPECT_GT(s.area, 0.0);
    EXPECT_EQ(s.cycles, -1);
  }
  EXPECT_EQ(sequential.samples[0].nodes, 256);
  EXPECT_EQ(sequential.samples[1].nodes, 1024);
}

TEST(Ensemble, ScaleFamilyHorizonsAreDiameterScaled) {
  const std::vector<FamilySpec> families = scale_family_specs();
  ASSERT_EQ(families.size(), 6u);
  std::uint64_t ba_prev = 0;
  std::uint64_t mesh_prev = 0;
  for (const auto& family : families) {
    EXPECT_GT(family.golden_cycles, 0u) << family.name;
    EXPECT_EQ(family.wp_cycles, 6 * family.golden_cycles) << family.name;
    EXPECT_GT(family.anneal_iterations, 0) << family.name;
    if (family.topology.family == TopologyFamily::kBarabasiAlbert) {
      EXPECT_GE(family.golden_cycles, ba_prev) << family.name;
      ba_prev = family.golden_cycles;
    } else {
      EXPECT_GT(family.golden_cycles, mesh_prev) << family.name;
      mesh_prev = family.golden_cycles;
    }
  }
  // Diameter, not node count, drives the horizon: the 1024-node mesh
  // (diameter 64) needs a far longer run than the 1024-node BA graph
  // (diameter ~log n).
  EXPECT_GT(mesh_prev, 3 * ba_prev);
}

TEST(Ensemble, FamilyHorizonOverridesLandInJobs) {
  EnsembleConfig config = small_ensemble();
  config.simulate.enabled = true;
  config.simulate.golden_cycles = 256;
  config.simulate.wp_cycles = 1536;
  config.families[0].golden_cycles = 512;   // ba-10 overrides both
  config.families[0].wp_cycles = 3072;
  // mesh-3x3 keeps the ensemble-wide horizons (overrides stay 0).
  const std::vector<SampleJob> jobs = ensemble_jobs(config);
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].simulate.golden_cycles, 512u);
  EXPECT_EQ(jobs[0].simulate.wp_cycles, 3072u);
  EXPECT_EQ(jobs[3].simulate.golden_cycles, 256u);
  EXPECT_EQ(jobs[3].simulate.wp_cycles, 1536u);
}

TEST(Ensemble, CsvRowCounts) {
  const EnsembleConfig config = small_ensemble();
  const EnsembleReport report = run_ensemble_sequential(config);
  std::ostringstream samples, families;
  write_samples_csv(report, samples);
  write_families_csv(report, families);
  const auto count_lines = [](const std::string& text) {
    return std::count(text.begin(), text.end(), '\n');
  };
  EXPECT_EQ(count_lines(samples.str()),
            static_cast<long>(report.samples.size()) + 1);
  EXPECT_EQ(count_lines(families.str()),
            static_cast<long>(report.families.size()) + 1);
  EXPECT_EQ(samples.str().rfind("family,sample,seed", 0), 0u);
}

}  // namespace
}  // namespace wp::gen
