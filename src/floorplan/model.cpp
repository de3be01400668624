#include "floorplan/model.hpp"

#include <algorithm>
#include <cmath>
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

double DemandIndex::derive(const Placement& placement,
                           const WireDelayModel& model,
                           std::vector<int>& rs) const {
  rs.assign(labels_.size(), 0);
  double total = 0;
  for (std::size_t i = 0; i < conn_.size(); ++i) {
    const double length = nets_.length(placement, i);
    total += length;
    int& worst = rs[conn_[i]];
    worst = std::max(worst, relay_stations_for_length(length, model));
  }
  return total;
}

std::vector<std::pair<std::string, int>> rs_demand(
    const Instance& inst, const Placement& placement,
    const WireDelayModel& model) {
  const DemandIndex index(inst);
  std::vector<int> rs;
  index.derive(placement, model, rs);
  std::vector<std::pair<std::string, int>> demand;
  demand.reserve(rs.size());
  for (std::size_t c = 0; c < rs.size(); ++c)
    demand.emplace_back(index.labels()[c], rs[c]);
  return demand;
}

}  // namespace wp::fplan
