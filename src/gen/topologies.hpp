// Synthetic SoC topology generators — the ensemble counterpart of the
// paper's single case-study CPU. Four classical graph families, each
// emitted as a wp::graph::Digraph with relay-station-annotated edges and
// (on demand) guaranteed strong connectivity, so every generated topology
// can be driven through the full floorplan → RS demand → min-cycle-ratio
// pipeline:
//
//   * Barabási–Albert      — scale-free preferential attachment (hubs);
//   * Watts–Strogatz       — small-world rewired ring lattice (clustering);
//   * 2D mesh / torus      — the regular NoC fabric, bidirectional links;
//   * clustered Erdős–Rényi — dense clusters, sparse inter-cluster wiring;
//     with er_clusters = 1 this is the plain ER family.
//
// All generators are deterministic in the caller-supplied Rng: the same
// config and seed always produce the bit-identical digraph.
#pragma once

#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace wp::gen {

enum class TopologyFamily {
  kBarabasiAlbert,
  kWattsStrogatz,
  kMesh,
  kClusteredErdosRenyi,
};

/// Short lowercase name ("ba", "ws", "mesh", "cer") for tables and CSV.
std::string family_name(TopologyFamily family);

/// Common knob set; each family reads its own section plus the shared ones.
struct TopologyConfig {
  TopologyFamily family = TopologyFamily::kClusteredErdosRenyi;
  int num_nodes = 32;
  /// Each edge gets a uniform random relay-station count in
  /// [0, max_relay_stations]. The ensemble pipeline later overwrites these
  /// with placement-derived demand; the annotation makes a generated
  /// topology a complete standalone min-cycle-ratio instance.
  int max_relay_stations = 3;
  /// BA/WS links are undirected in the textbook models; each link becomes a
  /// pair of antiparallel edges with this probability, otherwise a single
  /// edge of random orientation. Mesh links are always antiparallel pairs
  /// (a NoC fabric), clustered ER samples ordered pairs directly.
  double bidirectional_probability = 0.3;
  /// Repair pass: add condensation-closing edges until one SCC remains, so
  /// throughput is loop-limited everywhere and every node is dressable as a
  /// process (in-degree and out-degree >= 1). Without it a generated graph
  /// MAY BE ACYCLIC — see the contract note on generate_topology().
  bool ensure_strongly_connected = true;

  // --- Barabási–Albert ---
  int ba_attach = 2;  ///< links added per arriving node (m)

  // --- Watts–Strogatz ---
  int ws_neighbors = 4;              ///< ring-lattice degree k (even)
  double ws_rewire_probability = 0.1;

  // --- mesh / torus ---
  int mesh_rows = 0;        ///< 0 = derive a near-square factorization
  int mesh_cols = 0;        ///< of num_nodes (rows*cols must equal it)
  bool mesh_torus = false;  ///< wrap rows and columns

  // --- clustered Erdős–Rényi ---
  int er_clusters = 4;
  double er_intra_probability = 0.35;
  double er_inter_probability = 0.03;
};

/// Dispatches on config.family. Nodes are named "p0".."p<n-1>", edges are
/// labeled "e<edge-id>" (unique per edge, the connection key used by the
/// floorplan dressing and the throughput evaluator).
///
/// Acyclicity contract: when ensure_strongly_connected is false, nothing
/// guarantees a cycle; sparse configs can and do produce acyclic digraphs.
/// That is a valid result, not an error — the min-cycle-ratio solvers
/// return ratio 1.0 with has_cycle=false for such graphs (no loop
/// constrains the system). Callers that require the loop-limited regime
/// must keep ensure_strongly_connected on or check
/// strongly_connected_components().
graph::Digraph generate_topology(const TopologyConfig& config, Rng& rng);

/// The individual families (exposed for tests; generate_topology is the
/// usual entry point). Each validates its own config section.
graph::Digraph barabasi_albert(const TopologyConfig& config, Rng& rng);
graph::Digraph watts_strogatz(const TopologyConfig& config, Rng& rng);
graph::Digraph mesh_2d(const TopologyConfig& config, Rng& rng);
graph::Digraph clustered_erdos_renyi(const TopologyConfig& config, Rng& rng);

// --- structural analysis helpers -----------------------------------------

/// Strongly connected components (iterative Kosaraju). Returns one
/// component id per node, ids dense in [0, count).
struct SccResult {
  std::vector<int> component;  ///< per-node id
  int count = 0;
};
SccResult strongly_connected_components(const graph::Digraph& g);

/// Adds "sc<k>"-labeled repair edges (random relay stations in
/// [0, max_relay_stations]) from sink components to source components of
/// the condensation until the graph is one SCC. Deterministic in rng.
void make_strongly_connected(graph::Digraph& g, Rng& rng,
                             int max_relay_stations);

/// Average undirected clustering coefficient (edges of either direction
/// count as one neighbor link; self-loops ignored; nodes with fewer than
/// two neighbors contribute 0). The WS-vs-ER discriminator.
double average_clustering(const graph::Digraph& g);

/// Undirected degree (distinct neighbors in either direction, self loops
/// excluded) — the heavy-tail observable for the BA family.
std::vector<int> undirected_degrees(const graph::Digraph& g);

}  // namespace wp::gen
