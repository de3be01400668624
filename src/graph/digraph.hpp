// Directed multigraph of the system topology: nodes are processes, edges are
// connections. Each edge carries the number of relay stations inserted on
// it; loop analysis (Th = m/(m+n), minimum cycle ratio) reads these counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wp::graph {

using NodeId = int;
using EdgeId = int;

struct EdgeData {
  NodeId src = -1;
  NodeId dst = -1;
  std::string label;
  int relay_stations = 0;
  /// Token count of this channel at reset (1 in the golden marked-graph
  /// semantics; kept configurable for what-if studies).
  int tokens = 1;
};

class Digraph {
 public:
  NodeId add_node(std::string name);
  EdgeId add_edge(NodeId src, NodeId dst, std::string label = {},
                  int relay_stations = 0);

  int num_nodes() const { return static_cast<int>(names_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const std::string& node_name(NodeId n) const;
  NodeId find_node(const std::string& name) const;  ///< -1 if absent

  const EdgeData& edge(EdgeId e) const;
  EdgeData& edge(EdgeId e);

  /// Edge ids leaving `n`.
  const std::vector<EdgeId>& out_edges(NodeId n) const;
  /// Edge ids entering `n`.
  const std::vector<EdgeId>& in_edges(NodeId n) const;

  /// Latency of an edge in clock cycles: 1 (the consumer register) plus its
  /// relay stations.
  int edge_latency(EdgeId e) const { return 1 + edge(e).relay_stations; }

 private:
  void check_node(NodeId n) const;

  std::vector<std::string> names_;
  std::vector<EdgeData> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace wp::graph
