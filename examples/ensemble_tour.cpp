// Guided tour of the topology ensemble subsystem: one sample from each
// generator family, shown at every stage of the pipeline — the generated
// digraph's structure, the dressed floorplan instance and netlist, the
// throughput-aware annealed placement, the relay stations it implies, and
// the resulting min-cycle-ratio system throughput with its critical loop.
#include <algorithm>
#include <iostream>

#include "core/netlist_text.hpp"
#include "floorplan/annealer.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/throughput_engine.hpp"
#include "util/table.hpp"

namespace {

wp::gen::TopologyConfig family_config(wp::gen::TopologyFamily family) {
  wp::gen::TopologyConfig config;
  config.family = family;
  config.num_nodes = 16;
  config.ws_neighbors = 4;
  config.mesh_rows = 4;
  config.mesh_cols = 4;
  config.mesh_torus = true;
  config.er_clusters = 4;
  return config;
}

}  // namespace

int main() {
  using namespace wp;
  using gen::TopologyFamily;

  TextTable table({"family", "nodes", "edges", "max deg", "clustering",
                   "area", "RS total", "system Th", "critical loop len"});
  table.add_separator();

  for (const TopologyFamily family :
       {TopologyFamily::kBarabasiAlbert, TopologyFamily::kWattsStrogatz,
        TopologyFamily::kMesh, TopologyFamily::kClusteredErdosRenyi}) {
    Rng rng(7 + static_cast<std::uint64_t>(family));
    const gen::TopologyConfig topo_config = family_config(family);
    const graph::Digraph topology = gen::generate_topology(topo_config, rng);

    gen::SystemConfig sys_config;
    sys_config.name = gen::family_name(family) + "16";
    const gen::GeneratedSystem sys =
        gen::dress_topology(topology, sys_config, rng);

    // The netlist view really is a runnable system description.
    const ParsedSystem parsed = parse_system(sys.netlist, default_registry());

    // Throughput-aware floorplan of the dressed instance; the incremental
    // engine scores the placement-implied relay stations on the topology
    // itself.
    graph::Digraph base = topology;
    for (graph::EdgeId e = 0; e < base.num_edges(); ++e)
      base.edge(e).relay_stations = 0;
    graph::ThroughputEngine engine(std::move(base));
    fplan::AnnealOptions options;
    options.iterations = 4000;
    options.weight_wirelength = 0.05;
    options.weight_throughput = 50.0;
    options.seed = 99;
    options.throughput_engine = &engine;
    const fplan::AnnealResult result = fplan::anneal(sys.instance, options);
    const auto demand =
        fplan::rs_demand(sys.instance, result.placement, options.delay_model);
    int total_rs = 0;
    for (const auto& [connection, rs] : demand) {
      (void)connection;
      total_rs += rs;
    }
    // Critical loop straight from the solver (no full enumeration — hub
    // families have far too many elementary cycles to list), on the
    // engine's graph configured with the final placement's demand.
    engine.throughput(demand);
    const auto mcr = graph::min_cycle_ratio_howard(engine.graph());

    const auto degrees = gen::undirected_degrees(topology);
    table.add_row(
        {gen::family_name(family) + " (" + parsed.name + ")",
         std::to_string(topology.num_nodes()),
         std::to_string(topology.num_edges()),
         std::to_string(*std::max_element(degrees.begin(), degrees.end())),
         fmt_fixed(gen::average_clustering(topology), 3),
         fmt_fixed(result.area, 1), std::to_string(total_rs),
         fmt_fixed(mcr.ratio, 3), std::to_string(mcr.critical_cycle.size())});
  }
  table.print(std::cout);
  std::cout << "Each family generated with 16 nodes, dressed into blocks "
               "(log-uniform areas),\nfloorplanned throughput-aware, and "
               "scored by min cycle ratio over the derived\nrelay-station "
               "demand. See bench_ensembles for full distributions.\n";
  return 0;
}
