// Block-level floorplanning model: hard rectangular blocks, point-to-point
// nets between block centers, half-perimeter wirelength, and the wire-delay
// model that converts routed length into a relay-station count — the
// front-end that decides how many relay stations each Table-1 connection
// needs in a real wire-pipelined SoC flow.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wp::fplan {

struct Block {
  std::string name;
  double width = 0;
  double height = 0;
};

/// A point-to-point net; `connection` links it to a system-graph edge label
/// (e.g. "CU-IC") so derived relay-station counts flow into the throughput
/// analysis.
struct Net {
  std::string connection;
  int src_block = -1;
  int dst_block = -1;
};

struct Instance {
  std::string name;
  std::vector<Block> blocks;
  std::vector<Net> nets;

  int block_index(const std::string& name) const;  ///< -1 if absent
};

/// A placed floorplan: lower-left coordinates per block, same order as the
/// instance's block list.
struct Placement {
  std::vector<double> x;
  std::vector<double> y;
  double width = 0;   ///< bounding box
  double height = 0;

  double area() const { return width * height; }
};

/// Manhattan center-to-center length of a net under a placement.
double net_length(const Instance& inst, const Placement& placement,
                  const Net& net);

/// Sum of net lengths (HPWL for 2-pin nets).
double total_wirelength(const Instance& inst, const Placement& placement);

/// Wire-delay model: a repeatered global wire has delay ~ ps_per_mm · L.
/// A wire whose delay exceeds one clock period must be pipelined into
/// ceil(delay / period) stages, i.e. stages-1 relay stations.
struct WireDelayModel {
  double ps_per_mm = 150.0;     ///< delay slope of a repeatered wire
  double clock_ps = 500.0;      ///< clock period (2 GHz at 130 nm-ish)
  double reachable_mm() const { return clock_ps / ps_per_mm; }
};

/// Relay stations needed by a wire of length `mm`. The length must be
/// finite and non-negative, and the stage count must fit an int.
int relay_stations_for_length(double mm, const WireDelayModel& model);

/// An instance's nets with their connection labels interned: labels are
/// resolved to dense ids once, so a placement's wirelength and RS demand
/// come out of one flat pass over integer arrays. An anneal builds one and
/// derives every candidate through it; it is immutable, so concurrent
/// derive() calls are safe.
class DemandIndex {
 public:
  /// Range-checks every net's block indices (once, here).
  explicit DemandIndex(const Instance& inst);

  /// The sorted unique connection labels; connection id i is labels()[i].
  /// This is the order rs_demand() emits.
  const std::vector<std::string>& labels() const { return labels_; }

  /// One pass over the nets: `rs` (resized to labels().size()) receives
  /// each connection's max relay_stations_for_length() over its nets, and
  /// the return value is the net-order sum of net lengths — bit-identical
  /// to total_wirelength().
  double derive(const Placement& placement, const WireDelayModel& model,
                std::vector<int>& rs) const;

 private:
  std::vector<std::string> labels_;
  std::vector<std::size_t> src_;   ///< per net
  std::vector<std::size_t> dst_;   ///< per net
  std::vector<std::size_t> conn_;  ///< per net: connection id
  std::vector<double> half_w_;     ///< per block
  std::vector<double> half_h_;     ///< per block
};

/// Per-connection relay-station demand of a placement: the max over the
/// connection's nets of relay_stations_for_length(), sorted by label.
std::vector<std::pair<std::string, int>> rs_demand(
    const Instance& inst, const Placement& placement,
    const WireDelayModel& model);

}  // namespace wp::fplan
