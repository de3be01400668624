// Block-level floorplanning model: hard rectangular blocks, point-to-point
// nets between block centers, half-perimeter wirelength, and the wire-delay
// model that converts routed length into a relay-station count — the
// front-end that decides how many relay stations each Table-1 connection
// needs in a real wire-pipelined SoC flow.
#pragma once

#include <algorithm>
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

/// relay_stations_for_length() without a division or a ceil per wire: a
/// lazily extended table of exact length thresholds, where threshold k is
/// the shortest length that needs k relay stations. Each threshold is
/// found by stepping from an estimate with relay_stations_for_length()
/// itself, probing only lengths at or below one the reference has already
/// accepted, so count() equals the reference everywhere. A length beyond
/// the table, and any length the reference rejects (NaN, infinite,
/// negative, too many stages), goes to the reference, with its errors.
/// One table per thread: count() extends it.
class RelayStationTable {
 public:
  explicit RelayStationTable(const WireDelayModel& model);

  /// relay_stations_for_length(mm, model), bit for bit.
  int count(double mm) {
    // Also false for NaN: only lengths the table is known to cover.
    if (!(mm >= 0.0 && mm <= top_)) return extend(mm);
    // Estimate, then step to the k with bounds_[k] <= mm < bounds_[k + 1].
    // The estimate is almost always exact, and the sentinels end both
    // steps without a range test, so the loops rarely branch differently
    // from one wire to the next.
    const double top = static_cast<double>(max_count());
    std::size_t k = static_cast<std::size_t>(std::min(top, mm * per_mm_));
    while (mm < bounds_[k]) --k;
    while (bounds_[k + 1] <= mm) ++k;
    return static_cast<int>(k);
  }

  /// Thresholds computed so far: threshold(k) for k in [1, max_count()]
  /// is the shortest length needing k stations.
  int max_count() const { return static_cast<int>(bounds_.size()) - 2; }
  double threshold(int k) const { return bounds_[static_cast<std::size_t>(k)]; }

 private:
  /// Counts above this fall back to the reference without growing the
  /// table.
  static constexpr int kMaxCount = 1024;

  /// The reference's answer for `mm`, growing the table to cover it.
  /// Out of line, so the per-net loops that call count() stay tight.
  [[gnu::noinline]] int extend(double mm);
  /// Shortest length needing `k` stations, given that `known` needs at
  /// least k and thresholds 1..k-1 are in the table.
  double find_threshold(int k, double known) const;

  WireDelayModel model_;
  double per_mm_;  ///< stages per mm: the count estimate's slope
  /// A length with exactly max_count() stations (-1: none yet), so every
  /// length in [0, top_] is covered.
  double top_ = -1.0;
  /// {-inf, threshold 1, ..., threshold max_count(), +inf}.
  std::vector<double> bounds_;
};

/// An instance's nets as flat arrays: per-net block indices and per-block
/// half extents, range-checked once at construction. Both cost paths of an
/// anneal measure wirelength through it, so no candidate walks the Net and
/// Block structs (which carry std::strings) or re-checks a net. Immutable,
/// so concurrent calls are safe.
class NetGeometry {
 public:
  explicit NetGeometry(const Instance& inst);

  /// Centre-to-centre Manhattan length of net `net`; bit-identical to
  /// net_length().
  double length(const Placement& placement, std::size_t net) const;

  /// The net-order sum of net lengths — bit-identical to
  /// total_wirelength(). The sum is one in-order add chain on purpose:
  /// reassociating it would change the result's bits.
  double wirelength(const Placement& placement) const;

 private:
  std::vector<std::uint32_t> src_;  ///< per net
  std::vector<std::uint32_t> dst_;  ///< per net
  std::vector<double> half_w_;      ///< per block
  std::vector<double> half_h_;      ///< per block
};

/// An instance's nets with their connection labels interned: labels are
/// resolved to dense ids once, so a placement's wirelength and RS demand
/// come out of one flat pass over integer arrays. A throughput-driven
/// anneal builds one and derives every candidate through it; an
/// area-driven anneal needs no labels and uses a bare NetGeometry, skipping
/// the label sort. Immutable, so concurrent derive() calls are safe.
class DemandIndex {
 public:
  /// Range-checks every net's block indices (once, here).
  explicit DemandIndex(const Instance& inst);

  /// The sorted unique connection labels; connection id i is labels()[i].
  /// This is the order rs_demand() emits.
  const std::vector<std::string>& labels() const { return labels_; }

  /// One pass over the nets: `rs` (resized to labels().size()) receives
  /// each connection's max relay_stations_for_length() over its nets,
  /// counted through `stations`, and the return value is the net-order sum
  /// of net lengths — bit-identical to total_wirelength().
  double derive(const Placement& placement, RelayStationTable& stations,
                std::vector<int>& rs) const;

 private:
  NetGeometry nets_;
  std::vector<std::string> labels_;
  std::vector<std::uint32_t> conn_;  ///< per net: connection id
};

/// Per-connection relay-station demand of a placement: the max over the
/// connection's nets of relay_stations_for_length(), sorted by label.
std::vector<std::pair<std::string, int>> rs_demand(
    const Instance& inst, const Placement& placement,
    const WireDelayModel& model);

}  // namespace wp::fplan
