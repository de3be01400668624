// Directed multigraph of the system topology: nodes are processes, edges are
// connections. Each edge carries the number of relay stations inserted on
// it; loop analysis (Th = m/(m+n), minimum cycle ratio) reads these counts.
//
// Storage is flat: one record per node and per edge, and each node's out-
// and in-edges are a chain threaded through a per-edge link array in
// edge-id order. Adding a node or an edge appends to those arrays, so a
// graph built after reserve() allocates nothing per node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "util/assert.hpp"

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
  /// The edge ids leaving (or entering) one node, in edge-id order. A view
  /// into the graph: adding edges or nodes invalidates it.
  class EdgeList {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = EdgeId;
      using difference_type = std::ptrdiff_t;
      using pointer = const EdgeId*;
      using reference = EdgeId;

      iterator() = default;
      EdgeId operator*() const { return edge_; }
      iterator& operator++() {
        edge_ = next_[2 * static_cast<std::size_t>(edge_) + side_];
        return *this;
      }
      bool operator==(const iterator& other) const {
        return edge_ == other.edge_;
      }
      bool operator!=(const iterator& other) const {
        return !(*this == other);
      }

     private:
      friend class EdgeList;
      iterator(const EdgeId* next, std::size_t side, EdgeId edge)
          : next_(next), side_(side), edge_(edge) {}
      const EdgeId* next_ = nullptr;
      std::size_t side_ = 0;
      EdgeId edge_ = -1;
    };

    iterator begin() const { return {next_, side_, first_}; }
    iterator end() const { return {next_, side_, -1}; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

   private:
    friend class Digraph;
    EdgeList(const EdgeId* next, std::size_t side, EdgeId first,
             std::size_t size)
        : next_(next), side_(side), first_(first), size_(size) {}
    const EdgeId* next_;
    std::size_t side_;  ///< 0: out-chain, 1: in-chain
    EdgeId first_;
    std::size_t size_;
  };

  /// Capacity for `nodes` nodes and `edges` edges, so building up to that
  /// size reallocates nothing.
  void reserve(int nodes, int edges);

  NodeId add_node(std::string name);
  EdgeId add_edge(NodeId src, NodeId dst, std::string label = {},
                  int relay_stations = 0);

  int num_nodes() const { return static_cast<int>(names_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const std::string& node_name(NodeId n) const;
  NodeId find_node(const std::string& name) const;  ///< -1 if absent

  const EdgeData& edge(EdgeId e) const {
    check_edge(e);
    return edges_[static_cast<std::size_t>(e)];
  }
  EdgeData& edge(EdgeId e) {
    check_edge(e);
    return edges_[static_cast<std::size_t>(e)];
  }

  /// Edge ids leaving `n`.
  EdgeList out_edges(NodeId n) const;
  /// Edge ids entering `n`.
  EdgeList in_edges(NodeId n) const;

  /// Latency of an edge in clock cycles: 1 (the consumer register) plus its
  /// relay stations.
  int edge_latency(EdgeId e) const { return 1 + edge(e).relay_stations; }

 private:
  /// One node's two edge chains: first and last edge id (-1 when empty)
  /// and length, out-chain at index 0, in-chain at index 1.
  struct Chains {
    EdgeId first[2] = {-1, -1};
    EdgeId last[2] = {-1, -1};
    std::uint32_t size[2] = {0, 0};
  };

  void check_node(NodeId n) const;
  void check_edge(EdgeId e) const {
    WP_REQUIRE(e >= 0 && e < num_edges(), "edge id out of range");
  }
  EdgeList chain(NodeId n, std::size_t side) const;

  std::vector<std::string> names_;
  std::vector<Chains> chains_;  ///< per node
  std::vector<EdgeData> edges_;
  /// next_[2e] is the next edge of e's source's out-chain, next_[2e + 1]
  /// the next of its destination's in-chain; -1 ends a chain.
  std::vector<EdgeId> next_;
};

}  // namespace wp::graph
