#include "graph/dot.hpp"

#include <set>
#include <sstream>

#include "graph/cycle_ratio.hpp"

namespace wp::graph {

std::string to_dot(const Digraph& g, const DotOptions& options) {
  std::set<EdgeId> critical;
  if (options.highlight_critical_loop) {
    const auto mcr = min_cycle_ratio_howard(g);
    critical.insert(mcr.critical_cycle.begin(), mcr.critical_cycle.end());
  }

  std::ostringstream os;
  os << "digraph wirepipe {\n";
  os << "  label=\"" << options.title << "\";\n";
  os << "  rankdir=LR;\n  node [shape=box, fontname=\"Helvetica\"];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    os << "  n" << v << " [label=\"" << g.node_name(v) << "\"];\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    os << "  n" << ed.src << " -> n" << ed.dst << " [label=\"" << ed.label;
    if (options.show_relay_stations && ed.relay_stations > 0)
      os << " (" << ed.relay_stations << " RS)";
    os << "\"";
    if (critical.count(e))
      os << ", color=red, penwidth=2.0";
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace wp::graph
