// Dresses a generated topology into a complete synthetic system: a
// floorplannable instance (one hard block per process, extents sampled
// from configurable area/aspect distributions, one net per channel keyed
// by the edge label) plus a core netlist-language description whose
// processes are RandomMooreProcess blocks sized to the node's fan-in/out —
// parseable by core parse_system() with the default registry, so a
// generated system can be floorplanned, RS-annotated AND simulated.
#pragma once

#include <string>

#include "floorplan/model.hpp"
#include "gen/topologies.hpp"
#include "util/rng.hpp"

namespace wp::gen {

/// Block-extent sampling: area log-uniform in [min_area_mm2, max_area_mm2]
/// (SoC block areas span decades, so uniform-in-log), aspect ratio
/// (width/height) uniform in [min_aspect, max_aspect].
struct BlockDistribution {
  double min_area_mm2 = 0.5;
  double max_area_mm2 = 6.0;
  double min_aspect = 0.5;
  double max_aspect = 2.0;
};

struct SystemConfig {
  std::string name = "gen";
  BlockDistribution blocks;
  /// States per generated randommoore process in the netlist.
  int moore_states = 4;
  /// Also emit the core netlist view (GeneratedSystem::netlist). The
  /// netlist's randommoore processes carry a 32-bit input mask, so a node
  /// of in-degree > 32 cannot be dressed into one — exactly what the
  /// hubs of scale-free topologies at 256+ nodes produce. Turning this
  /// off dresses the floorplan/throughput views only (netlist empty, no
  /// port-limit constraint): the anneal → RS demand → min-cycle-ratio
  /// pipeline runs in full, simulation is unavailable. Callers that never
  /// simulate (a floorplan request, an ensemble sample without
  /// simulation) dress netlist-free whatever this says.
  bool build_netlist = true;
};

/// The two views dress_topology() adds to a topology: nets and netlist
/// channels carry connection=<edge label>, so floorplan-derived RS demand
/// flows into both the throughput evaluator (which reads the caller's
/// topology itself) and the simulator unchanged.
struct GeneratedSystem {
  fplan::Instance instance;  ///< blocks + nets for the floorplanner
  /// Core netlist text (default_registry types); empty when dressed with
  /// build_netlist = false.
  std::string netlist;
};

/// Blocks draw their extents from rng in node order; the netlist (with
/// config.build_netlist, the default) then draws one randommoore seed per
/// node. So the instance is the same with or without the netlist, and a
/// caller that never simulates (a floorplan request, an ensemble sample
/// without simulation) dresses netlist-free: the text is the costliest
/// part of a small dressing and nothing else reads it. The netlist
/// requires every node to have in-degree in [1, 32] and out-degree >= 1
/// (RandomMooreProcess port limits) — guaranteed by generators run with
/// ensure_strongly_connected at modest sizes; scale-free families at 256+
/// nodes grow hubs past the limit and must dress netlist-free.
/// Deterministic in rng. The netlist's rs= annotations mirror the
/// topology's edge counts; the ensemble pipeline overrides them with
/// placement-derived demand.
GeneratedSystem dress_topology(const graph::Digraph& topology,
                               const SystemConfig& config, Rng& rng);

}  // namespace wp::gen
