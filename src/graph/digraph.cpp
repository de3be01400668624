#include "graph/digraph.hpp"

#include "util/assert.hpp"

namespace wp::graph {

NodeId Digraph::add_node(std::string name) {
  names_.push_back(std::move(name));
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(names_.size() - 1);
}

EdgeId Digraph::add_edge(NodeId src, NodeId dst, std::string label,
                         int relay_stations) {
  check_node(src);
  check_node(dst);
  WP_REQUIRE(relay_stations >= 0, "relay station count must be >= 0");
  EdgeData e;
  e.src = src;
  e.dst = dst;
  e.label = std::move(label);
  e.relay_stations = relay_stations;
  edges_.push_back(std::move(e));
  const EdgeId id = static_cast<EdgeId>(edges_.size() - 1);
  out_[static_cast<std::size_t>(src)].push_back(id);
  in_[static_cast<std::size_t>(dst)].push_back(id);
  return id;
}

const std::string& Digraph::node_name(NodeId n) const {
  check_node(n);
  return names_[static_cast<std::size_t>(n)];
}

NodeId Digraph::find_node(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<NodeId>(i);
  return -1;
}

const EdgeData& Digraph::edge(EdgeId e) const {
  WP_REQUIRE(e >= 0 && e < num_edges(), "edge id out of range");
  return edges_[static_cast<std::size_t>(e)];
}

EdgeData& Digraph::edge(EdgeId e) {
  WP_REQUIRE(e >= 0 && e < num_edges(), "edge id out of range");
  return edges_[static_cast<std::size_t>(e)];
}

const std::vector<EdgeId>& Digraph::out_edges(NodeId n) const {
  check_node(n);
  return out_[static_cast<std::size_t>(n)];
}

const std::vector<EdgeId>& Digraph::in_edges(NodeId n) const {
  check_node(n);
  return in_[static_cast<std::size_t>(n)];
}

void Digraph::check_node(NodeId n) const {
  WP_REQUIRE(n >= 0 && n < num_nodes(), "node id out of range");
}

}  // namespace wp::graph
