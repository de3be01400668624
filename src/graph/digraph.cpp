#include "graph/digraph.hpp"

namespace wp::graph {

void Digraph::reserve(int nodes, int edges) {
  WP_REQUIRE(nodes >= 0 && edges >= 0, "reserve sizes must be >= 0");
  names_.reserve(static_cast<std::size_t>(nodes));
  chains_.reserve(static_cast<std::size_t>(nodes));
  edges_.reserve(static_cast<std::size_t>(edges));
  next_.reserve(2 * static_cast<std::size_t>(edges));
}

NodeId Digraph::add_node(std::string name) {
  names_.push_back(std::move(name));
  chains_.emplace_back();
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
  next_.push_back(-1);
  next_.push_back(-1);
  // Append id to src's out-chain (side 0) and dst's in-chain (side 1).
  const NodeId ends[2] = {src, dst};
  for (std::size_t side = 0; side < 2; ++side) {
    Chains& c = chains_[static_cast<std::size_t>(ends[side])];
    if (c.last[side] < 0)
      c.first[side] = id;
    else
      next_[2 * static_cast<std::size_t>(c.last[side]) + side] = id;
    c.last[side] = id;
    ++c.size[side];
  }
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

Digraph::EdgeList Digraph::chain(NodeId n, std::size_t side) const {
  check_node(n);
  const Chains& c = chains_[static_cast<std::size_t>(n)];
  return EdgeList(next_.data(), side, c.first[side], c.size[side]);
}

Digraph::EdgeList Digraph::out_edges(NodeId n) const { return chain(n, 0); }

Digraph::EdgeList Digraph::in_edges(NodeId n) const { return chain(n, 1); }

void Digraph::check_node(NodeId n) const {
  WP_REQUIRE(n >= 0 && n < num_nodes(), "node id out of range");
}

}  // namespace wp::graph
