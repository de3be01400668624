// Assembles the case-study processor (paper Fig. 1) as a SystemSpec with the
// ten named connections of Table 1, and as a Digraph for static analysis.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "graph/digraph.hpp"
#include "proc/programs.hpp"

namespace wp::proc {

struct CpuConfig {
  bool multicycle = false;  ///< §2: "multicycle and pipelined" fashions
  int fetch_window = 4;
  int drain_firings = 8;
  /// Extension (ablation): let the WP2 oracle skip wrong-path instruction
  /// tokens the CU squashed itself. Off in the paper's configuration.
  bool relax_squashed_fetches = false;
};

/// Table-1 connection names, in the paper's row order.
const std::vector<std::string>& cpu_connections();

/// Builds the five-block system running `program`. Relay-station counts are
/// set afterwards with SystemSpec::set_rs_map / set_connection_rs using the
/// cpu_connections() names ("CU-IC" covers both directions of the bundle).
wp::SystemSpec make_cpu_system(const ProgramSpec& program,
                               const CpuConfig& config = {});

/// The Fig. 1 topology as a digraph; edge labels are connection names and
/// relay-station counts start at zero.
wp::graph::Digraph make_cpu_graph();

/// make_cpu_graph() with a per-connection relay-station map applied
/// (missing names keep zero). The single source of truth for turning a
/// Table-1 RS configuration into the static-analysis graph, behind the
/// simulation oracle's m/(m+n) column.
wp::graph::Digraph make_cpu_graph_with_rs(
    const std::map<std::string, int>& rs);

}  // namespace wp::proc
