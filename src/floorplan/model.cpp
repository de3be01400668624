#include "floorplan/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace wp::fplan {

namespace {

void require_net_in_range(const Instance& inst, const Net& net) {
  WP_REQUIRE(net.src_block >= 0 &&
                 net.src_block < static_cast<int>(inst.blocks.size()),
             "net source block out of range");
  WP_REQUIRE(net.dst_block >= 0 &&
                 net.dst_block < static_cast<int>(inst.blocks.size()),
             "net destination block out of range");
}

/// The one centre-to-centre Manhattan formula: blocks s and d at their
/// placed lower-left corners, shifted by their half extents.
double centre_distance(const Placement& placement, std::size_t s,
                       double s_half_w, double s_half_h, std::size_t d,
                       double d_half_w, double d_half_h) {
  const double sx = placement.x[s] + s_half_w;
  const double sy = placement.y[s] + s_half_h;
  const double dx = placement.x[d] + d_half_w;
  const double dy = placement.y[d] + d_half_h;
  return std::abs(sx - dx) + std::abs(sy - dy);
}

}  // namespace

int Instance::block_index(const std::string& block_name) const {
  for (std::size_t i = 0; i < blocks.size(); ++i)
    if (blocks[i].name == block_name) return static_cast<int>(i);
  return -1;
}

double net_length(const Instance& inst, const Placement& placement,
                  const Net& net) {
  require_net_in_range(inst, net);
  const auto s = static_cast<std::size_t>(net.src_block);
  const auto d = static_cast<std::size_t>(net.dst_block);
  return centre_distance(placement, s, inst.blocks[s].width / 2,
                         inst.blocks[s].height / 2, d,
                         inst.blocks[d].width / 2, inst.blocks[d].height / 2);
}

double total_wirelength(const Instance& inst, const Placement& placement) {
  double total = 0;
  for (const auto& net : inst.nets) total += net_length(inst, placement, net);
  return total;
}

int relay_stations_for_length(double mm, const WireDelayModel& model) {
  WP_REQUIRE(std::isfinite(mm) && mm >= 0,
             "wire length must be finite and non-negative");
  WP_REQUIRE(model.ps_per_mm > 0 && model.clock_ps > 0,
             "delay model parameters must be positive");
  const double delay = mm * model.ps_per_mm;
  const double stages = std::ceil(delay / model.clock_ps - 1e-9);
  WP_REQUIRE(stages <= static_cast<double>(std::numeric_limits<int>::max()),
             "wire needs more pipeline stages than an int can count");
  return std::max(1, static_cast<int>(stages)) - 1;
}

RelayStationTable::RelayStationTable(const WireDelayModel& model)
    : model_(model),
      per_mm_(model.ps_per_mm / model.clock_ps),
      bounds_{-std::numeric_limits<double>::infinity(),
              std::numeric_limits<double>::infinity()} {}

int RelayStationTable::extend(double mm) {
  const int count = relay_stations_for_length(mm, model_);
  if (count > kMaxCount) return count;
  // The reference accepted mm, and mm > top_, so count is at least
  // max_count(); every threshold up to count lies at or below mm.
  const int known = max_count();
  bounds_.pop_back();  // the +inf sentinel, pushed back below
  for (int k = known + 1; k <= count; ++k)
    bounds_.push_back(find_threshold(k, mm));
  bounds_.push_back(std::numeric_limits<double>::infinity());
  top_ = mm;
  return count;
}

double RelayStationTable::find_threshold(int k, double known) const {
  // A bisection over the bit patterns of the lengths in (lo, hi], which
  // order like the lengths themselves (all are non-negative), seeded by
  // galloping from the estimate. Invariant: lo needs fewer than k
  // stations, hi at least k. Every probe lies at or below `known`, a
  // length the reference accepted, so no probe can throw.
  const double below = k == 1 ? 0.0 : bounds_[static_cast<std::size_t>(k) - 1];
  auto reaches = [&](double mm) {
    return relay_stations_for_length(mm, model_) >= k;
  };
  if (reaches(below)) return below;  // two thresholds at one length
  auto bits = [](double mm) {
    std::uint64_t b;
    std::memcpy(&b, &mm, sizeof b);
    return b;
  };
  auto length = [](std::uint64_t b) {
    double mm;
    std::memcpy(&mm, &b, sizeof mm);
    return mm;
  };
  std::uint64_t lo = bits(below);
  std::uint64_t hi = bits(known);
  // The reference's stage boundary: delay / clock just above k + 1e-9.
  const double estimate = (k + 1e-9) * model_.clock_ps / model_.ps_per_mm;
  std::uint64_t probe = hi;
  if (estimate > below && estimate < known) probe = bits(estimate);
  if (reaches(length(probe))) {
    hi = probe;
    for (std::uint64_t step = 1; hi - lo > 1; step *= 2) {
      probe = hi - std::min(step, hi - lo - 1);
      if (!reaches(length(probe))) {
        lo = probe;
        break;
      }
      hi = probe;
    }
  } else {
    lo = probe;
    for (std::uint64_t step = 1; hi - lo > 1; step *= 2) {
      probe = lo + std::min(step, hi - lo - 1);
      if (reaches(length(probe))) {
        hi = probe;
        break;
      }
      lo = probe;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (reaches(length(mid)) ? hi : lo) = mid;
  }
  return length(hi);
}

NetGeometry::NetGeometry(const Instance& inst) {
  WP_REQUIRE(inst.blocks.size() <= std::numeric_limits<std::uint32_t>::max(),
             "too many blocks for 32-bit net indices");
  src_.reserve(inst.nets.size());
  dst_.reserve(inst.nets.size());
  for (const auto& net : inst.nets) {
    require_net_in_range(inst, net);
    src_.push_back(static_cast<std::uint32_t>(net.src_block));
    dst_.push_back(static_cast<std::uint32_t>(net.dst_block));
  }
  half_w_.reserve(inst.blocks.size());
  half_h_.reserve(inst.blocks.size());
  for (const auto& block : inst.blocks) {
    half_w_.push_back(block.width / 2);
    half_h_.push_back(block.height / 2);
  }
}

double NetGeometry::length(const Placement& placement,
                           std::size_t net) const {
  const std::size_t s = src_[net];
  const std::size_t d = dst_[net];
  return centre_distance(placement, s, half_w_[s], half_h_[s], d, half_w_[d],
                         half_h_[d]);
}

// The two per-candidate net passes are pinned to a 64-byte boundary, as
// pack_engine.cpp pins fused_pass: each is one short loop whose speed
// depends on where it falls within a line. Unpinned, a 16-byte shift of
// this file's code (from growth in any object linked before it) moved the
// area-driven anneal of a 32x32 mesh by ~6%.
[[gnu::aligned(64)]]
double NetGeometry::wirelength(const Placement& placement) const {
  double total = 0;
  for (std::size_t i = 0; i < src_.size(); ++i) total += length(placement, i);
  return total;
}

DemandIndex::DemandIndex(const Instance& inst) : nets_(inst) {
  const std::size_t n = inst.nets.size();
  // Nets in label order; each run of equal labels is one connection id.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  sort_by_label(order, [&inst](std::size_t i) -> const std::string& {
    return inst.nets[i].connection;
  });
  conn_.resize(n);
  labels_.reserve(n);
  for (const std::size_t i : order) {
    const std::string& label = inst.nets[i].connection;
    if (labels_.empty() || labels_.back() != label) labels_.push_back(label);
    conn_[i] = static_cast<std::uint32_t>(labels_.size() - 1);
  }
}

// Flattened too: without it gcc calls NetGeometry::length() out of line
// from this loop and keeps the wirelength sum on the stack.
[[gnu::aligned(64), gnu::flatten]]
double DemandIndex::derive(const Placement& placement,
                           RelayStationTable& stations,
                           std::vector<int>& rs) const {
  rs.assign(labels_.size(), 0);
  double total = 0;
  for (std::size_t i = 0; i < conn_.size(); ++i) {
    const double length = nets_.length(placement, i);
    total += length;
    int& worst = rs[conn_[i]];
    worst = std::max(worst, stations.count(length));
  }
  return total;
}

std::vector<std::pair<std::string, int>> rs_demand(
    const Instance& inst, const Placement& placement,
    const WireDelayModel& model) {
  const DemandIndex index(inst);
  RelayStationTable stations(model);
  std::vector<int> rs;
  index.derive(placement, stations, rs);
  std::vector<std::pair<std::string, int>> demand;
  demand.reserve(rs.size());
  for (std::size_t c = 0; c < rs.size(); ++c)
    demand.emplace_back(index.labels()[c], rs[c]);
  return demand;
}

}  // namespace wp::fplan
