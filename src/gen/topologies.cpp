#include "gen/topologies.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

#include "util/assert.hpp"

namespace wp::gen {

namespace {

using graph::Digraph;
using graph::EdgeId;
using graph::NodeId;

/// `prefix` (at most two characters) followed by the decimal digits of
/// `n`, formatted in place: the generators name every node and label
/// every edge this way, and a short name fits the string's inline buffer.
std::string numbered(const char* prefix, int n) {
  char buf[16];
  const std::size_t len = std::strlen(prefix);
  std::memcpy(buf, prefix, len);
  return std::string(buf, std::to_chars(buf + len, buf + sizeof buf, n).ptr);
}

/// Starts `g` with nodes "p0".."p<n-1>" and room for `max_edges` edges, so
/// a generator that stays within its bound reallocates nothing.
void add_numbered_nodes(Digraph& g, int num_nodes, int max_edges) {
  g.reserve(num_nodes, max_edges);
  for (int i = 0; i < num_nodes; ++i) g.add_node(numbered("p", i));
}

int random_rs(Rng& rng, int max_relay_stations) {
  return static_cast<int>(
      rng.below(static_cast<std::uint64_t>(max_relay_stations) + 1));
}

/// Adds one edge labeled "e<id>" with a random relay-station count.
void add_link(Digraph& g, NodeId src, NodeId dst, Rng& rng,
              int max_relay_stations) {
  g.add_edge(src, dst, numbered("e", g.num_edges()),
             random_rs(rng, max_relay_stations));
}

/// Emits one undirected model link as digraph edges: an antiparallel pair
/// with the configured probability, otherwise a single coin-flipped edge.
void add_undirected_link(Digraph& g, NodeId a, NodeId b,
                         const TopologyConfig& config, Rng& rng) {
  if (rng.chance(config.bidirectional_probability)) {
    add_link(g, a, b, rng, config.max_relay_stations);
    add_link(g, b, a, rng, config.max_relay_stations);
  } else if (rng.chance(0.5)) {
    add_link(g, a, b, rng, config.max_relay_stations);
  } else {
    add_link(g, b, a, rng, config.max_relay_stations);
  }
}

/// Distinct-neighbor lists (either direction, self-loops dropped), sorted
/// so membership tests can binary-search.
std::vector<std::vector<int>> neighbor_sets(const Digraph& g) {
  std::vector<std::vector<int>> nbr(static_cast<std::size_t>(g.num_nodes()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& data = g.edge(e);
    if (data.src == data.dst) continue;
    nbr[static_cast<std::size_t>(data.src)].push_back(data.dst);
    nbr[static_cast<std::size_t>(data.dst)].push_back(data.src);
  }
  for (auto& list : nbr) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return nbr;
}

}  // namespace

std::string family_name(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::kBarabasiAlbert: return "ba";
    case TopologyFamily::kWattsStrogatz: return "ws";
    case TopologyFamily::kMesh: return "mesh";
    case TopologyFamily::kClusteredErdosRenyi: return "cer";
  }
  WP_REQUIRE(false, "unknown topology family");
  return {};
}

graph::Digraph generate_topology(const TopologyConfig& config, Rng& rng) {
  Digraph g;
  switch (config.family) {
    case TopologyFamily::kBarabasiAlbert:
      g = barabasi_albert(config, rng);
      break;
    case TopologyFamily::kWattsStrogatz:
      g = watts_strogatz(config, rng);
      break;
    case TopologyFamily::kMesh:
      g = mesh_2d(config, rng);
      break;
    case TopologyFamily::kClusteredErdosRenyi:
      g = clustered_erdos_renyi(config, rng);
      break;
  }
  if (config.ensure_strongly_connected)
    make_strongly_connected(g, rng, config.max_relay_stations);
  return g;
}

graph::Digraph barabasi_albert(const TopologyConfig& config, Rng& rng) {
  WP_REQUIRE(config.ba_attach >= 1, "ba_attach must be >= 1");
  WP_REQUIRE(config.num_nodes > config.ba_attach,
             "need more nodes than ba_attach");
  Digraph g;
  // A ring of m0 links, then ba_attach links per arriving node, each at
  // most an antiparallel pair.
  const int m0 = std::max(config.ba_attach, 2);
  add_numbered_nodes(g, config.num_nodes,
                     m0 + 2 * config.ba_attach * (config.num_nodes - m0));

  // Seed core: a directed ring over the first m0 nodes (cycles from the
  // start, every seed node already has degree for the attachment lottery).
  std::vector<NodeId> endpoints;  // one entry per link end: degree lottery
  for (int i = 0; i < m0 && i < config.num_nodes; ++i) {
    const NodeId next = (i + 1) % m0;
    add_link(g, i, next, rng, config.max_relay_stations);
    endpoints.push_back(i);
    endpoints.push_back(next);
  }

  for (NodeId u = m0; u < config.num_nodes; ++u) {
    std::vector<NodeId> chosen;
    while (static_cast<int>(chosen.size()) < config.ba_attach) {
      NodeId t = endpoints[rng.below(endpoints.size())];
      if (t == u ||
          std::find(chosen.begin(), chosen.end(), t) != chosen.end())
        continue;  // resample; the lottery always has u-free entries
      chosen.push_back(t);
    }
    for (NodeId t : chosen) {
      add_undirected_link(g, u, t, config, rng);
      endpoints.push_back(u);
      endpoints.push_back(t);
    }
  }
  return g;
}

graph::Digraph watts_strogatz(const TopologyConfig& config, Rng& rng) {
  const int n = config.num_nodes;
  const int k = config.ws_neighbors;
  WP_REQUIRE(k >= 2 && k % 2 == 0, "ws_neighbors must be even and >= 2");
  WP_REQUIRE(n > k, "need num_nodes > ws_neighbors");
  Digraph g;
  add_numbered_nodes(g, n, n * k);  // n·k/2 links, each at most a pair

  // Ring lattice: node i linked to its k/2 clockwise neighbors (each
  // undirected link recorded once), then each link's far endpoint rewired
  // with the configured probability, avoiding self-links and duplicates.
  std::vector<std::pair<NodeId, NodeId>> links;
  auto has_link = [&](NodeId a, NodeId b) {
    for (const auto& [x, y] : links)
      if ((x == a && y == b) || (x == b && y == a)) return true;
    return false;
  };
  for (int i = 0; i < n; ++i)
    for (int j = 1; j <= k / 2; ++j) links.push_back({i, (i + j) % n});
  for (auto& link : links) {
    if (!rng.chance(config.ws_rewire_probability)) continue;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const NodeId w = static_cast<NodeId>(rng.below(
          static_cast<std::uint64_t>(n)));
      if (w == link.first || w == link.second || has_link(link.first, w))
        continue;
      link.second = w;
      break;  // keep the original link when every attempt collided
    }
  }
  for (const auto& [a, b] : links) add_undirected_link(g, a, b, config, rng);
  return g;
}

graph::Digraph mesh_2d(const TopologyConfig& config, Rng& rng) {
  int rows = config.mesh_rows;
  int cols = config.mesh_cols;
  if (rows <= 0 || cols <= 0) {
    // Near-square factorization: the largest divisor <= sqrt(num_nodes).
    WP_REQUIRE(config.num_nodes >= 1, "need at least one node");
    rows = 1;
    for (int d = 1; d * d <= config.num_nodes; ++d)
      if (config.num_nodes % d == 0) rows = d;
    cols = config.num_nodes / rows;
  }
  WP_REQUIRE(rows * cols == config.num_nodes,
             "mesh_rows * mesh_cols must equal num_nodes");
  Digraph g;
  // Every lattice link (and torus wrap) is an antiparallel pair.
  const int row_links = config.mesh_torus && cols > 2 ? cols : cols - 1;
  const int col_links = config.mesh_torus && rows > 2 ? rows : rows - 1;
  add_numbered_nodes(g, config.num_nodes,
                     2 * (rows * row_links + cols * col_links));

  // NoC fabric: every lattice link is an antiparallel channel pair. Torus
  // wrap links only exist when the dimension exceeds 2 (at 2 the wrap
  // would duplicate the interior link).
  auto at = [cols](int r, int c) { return r * cols + c; };
  auto pair_link = [&](NodeId a, NodeId b) {
    add_link(g, a, b, rng, config.max_relay_stations);
    add_link(g, b, a, rng, config.max_relay_stations);
  };
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols)
        pair_link(at(r, c), at(r, c + 1));
      else if (config.mesh_torus && cols > 2)
        pair_link(at(r, c), at(r, 0));
      if (r + 1 < rows)
        pair_link(at(r, c), at(r + 1, c));
      else if (config.mesh_torus && rows > 2)
        pair_link(at(r, c), at(0, c));
    }
  return g;
}

graph::Digraph clustered_erdos_renyi(const TopologyConfig& config, Rng& rng) {
  const int n = config.num_nodes;
  WP_REQUIRE(n >= 1, "need at least one node");
  WP_REQUIRE(config.er_clusters >= 1 && config.er_clusters <= n,
             "er_clusters must be in [1, num_nodes]");
  Digraph g;
  add_numbered_nodes(g, n, 0);  // the edge count is a coin flip per pair
  // Contiguous near-equal clusters; each ordered pair sampled with the
  // intra- or inter-cluster probability.
  auto cluster_of = [&](int i) {
    return static_cast<int>(static_cast<long long>(i) * config.er_clusters /
                            n);
  };
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v) {
      if (u == v) continue;
      const double p = cluster_of(u) == cluster_of(v)
                           ? config.er_intra_probability
                           : config.er_inter_probability;
      if (rng.chance(p)) add_link(g, u, v, rng, config.max_relay_stations);
    }
  return g;
}

SccResult strongly_connected_components(const graph::Digraph& g) {
  const int n = g.num_nodes();
  SccResult result;
  result.component.assign(static_cast<std::size_t>(n), -1);

  // Kosaraju, both passes iterative. Pass 1: finish order on g.
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  // Each node is pushed once, so the stack never outgrows n entries.
  std::vector<std::pair<NodeId, Digraph::EdgeList::iterator>> stack;
  stack.reserve(static_cast<std::size_t>(n));
  for (NodeId s = 0; s < n; ++s) {
    if (visited[static_cast<std::size_t>(s)]) continue;
    visited[static_cast<std::size_t>(s)] = 1;
    stack.emplace_back(s, g.out_edges(s).begin());
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      if (next != g.out_edges(u).end()) {
        const NodeId v = g.edge(*next).dst;
        ++next;
        if (!visited[static_cast<std::size_t>(v)]) {
          visited[static_cast<std::size_t>(v)] = 1;
          stack.emplace_back(v, g.out_edges(v).begin());
        }
      } else {
        order.push_back(u);
        stack.pop_back();
      }
    }
  }
  // Pass 2: reverse-graph DFS in reverse finish order labels components.
  std::vector<NodeId> dfs;
  dfs.reserve(static_cast<std::size_t>(n));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (result.component[static_cast<std::size_t>(*it)] != -1) continue;
    dfs.push_back(*it);
    result.component[static_cast<std::size_t>(*it)] = result.count;
    while (!dfs.empty()) {
      const NodeId u = dfs.back();
      dfs.pop_back();
      for (EdgeId e : g.in_edges(u)) {
        const NodeId v = g.edge(e).src;
        if (result.component[static_cast<std::size_t>(v)] == -1) {
          result.component[static_cast<std::size_t>(v)] = result.count;
          dfs.push_back(v);
        }
      }
    }
    ++result.count;
  }
  return result;
}

void make_strongly_connected(graph::Digraph& g, Rng& rng,
                             int max_relay_stations) {
  WP_REQUIRE(g.num_nodes() > 0, "cannot connect an empty graph");
  for (;;) {
    const SccResult scc = strongly_connected_components(g);
    if (scc.count <= 1) return;

    // Condensation bookkeeping: which components have cross-component
    // out/in edges, and the smallest member of each (the deterministic
    // representative the repair edge attaches to).
    std::vector<char> has_out(static_cast<std::size_t>(scc.count), 0);
    std::vector<char> has_in(static_cast<std::size_t>(scc.count), 0);
    std::vector<NodeId> rep(static_cast<std::size_t>(scc.count), -1);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto cu = static_cast<std::size_t>(
          scc.component[static_cast<std::size_t>(u)]);
      if (rep[cu] == -1) rep[cu] = u;
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& data = g.edge(e);
      const int cs = scc.component[static_cast<std::size_t>(data.src)];
      const int cd = scc.component[static_cast<std::size_t>(data.dst)];
      if (cs == cd) continue;
      has_out[static_cast<std::size_t>(cs)] = 1;
      has_in[static_cast<std::size_t>(cd)] = 1;
    }
    // Close sink -> source: pick the sink with the smallest representative
    // and the smallest-representative source in a different component.
    int sink = -1, source = -1;
    for (int c = 0; c < scc.count; ++c) {
      if (!has_out[static_cast<std::size_t>(c)] &&
          (sink == -1 || rep[static_cast<std::size_t>(c)] <
                             rep[static_cast<std::size_t>(sink)]))
        sink = c;
    }
    for (int c = 0; c < scc.count; ++c) {
      if (c == sink) continue;
      if (!has_in[static_cast<std::size_t>(c)] &&
          (source == -1 || rep[static_cast<std::size_t>(c)] <
                               rep[static_cast<std::size_t>(source)]))
        source = c;
    }
    // A multi-component condensation with its only source also its only
    // sink would be a condensation cycle — impossible in a DAG.
    WP_REQUIRE(sink != -1 && source != -1,
               "condensation must expose a sink and a distinct source");
    g.add_edge(rep[static_cast<std::size_t>(sink)],
               rep[static_cast<std::size_t>(source)],
               numbered("sc", g.num_edges()),
               random_rs(rng, max_relay_stations));
  }
}

double average_clustering(const graph::Digraph& g) {
  if (g.num_nodes() == 0) return 0.0;
  const auto nbr = neighbor_sets(g);
  double total = 0.0;
  for (const auto& list : nbr) {
    const std::size_t deg = list.size();
    if (deg < 2) continue;  // contributes 0
    std::size_t closed = 0;
    for (std::size_t i = 0; i < deg; ++i)
      for (std::size_t j = i + 1; j < deg; ++j) {
        const auto& other = nbr[static_cast<std::size_t>(list[i])];
        if (std::binary_search(other.begin(), other.end(), list[j]))
          ++closed;
      }
    total += static_cast<double>(closed) /
             (static_cast<double>(deg) * static_cast<double>(deg - 1) / 2.0);
  }
  return total / static_cast<double>(g.num_nodes());
}

std::vector<int> undirected_degrees(const graph::Digraph& g) {
  const auto nbr = neighbor_sets(g);
  std::vector<int> degrees;
  degrees.reserve(nbr.size());
  for (const auto& list : nbr)
    degrees.push_back(static_cast<int>(list.size()));
  return degrees;
}

}  // namespace wp::gen
