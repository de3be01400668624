#include "floorplan/pack_engine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wp::fplan {

const char* pack_engine_name(PackEngine engine) {
  switch (engine) {
    case PackEngine::kNaive: return "naive";
    case PackEngine::kMovePacker: return "move";
  }
  return "?";
}

namespace detail {

void MaxFenwick::reset(std::size_t size) { tree_.assign(size + 1, 0.0); }

void MaxFenwick::update(std::size_t index, double value) {
  for (std::size_t i = index + 1; i < tree_.size(); i += i & (~i + 1))
    tree_[i] = std::max(tree_[i], value);
}

double MaxFenwick::prefix_max(std::size_t count) const {
  double best = 0.0;
  for (std::size_t i = count; i > 0; i -= i & (~i + 1))
    best = std::max(best, tree_[i]);
  return best;
}

}  // namespace detail

namespace {

/// The fused two-axis relaxation behind pack_fast() and every MovePacker
/// candidate. The x tree is keyed by Γ+ position and the y tree by the
/// reversed Γ+ position, so prefix_max() asks exactly the naive packer's
/// question — max over blocks earlier in Γ− whose Γ+ position is smaller
/// (x) resp. larger (y). One Γ− walk serves both axes (the per-position
/// block/key lookups are shared), and the bounding box falls out of the
/// same reaches the trees are fed.
void fused_pass(const std::vector<int>& negative,
                const std::vector<std::size_t>& pos_p,
                const std::vector<double>& widths,
                const std::vector<double>& heights, detail::MaxFenwick& fx,
                detail::MaxFenwick& fy, Placement& placement) {
  const std::size_t n = negative.size();
  fx.reset(n);
  fy.reset(n);
  double width = 0.0;
  double height = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const auto b = static_cast<std::size_t>(negative[k]);
    const std::size_t kx = pos_p[b];
    const std::size_t ky = n - 1 - kx;
    const double x = fx.prefix_max(kx);
    const double y = fy.prefix_max(ky);
    placement.x[b] = x;
    placement.y[b] = y;
    const double x_reach = x + widths[b];
    const double y_reach = y + heights[b];
    fx.update(kx, x_reach);
    fy.update(ky, y_reach);
    width = std::max(width, x_reach);
    height = std::max(height, y_reach);
  }
  placement.width = width;
  placement.height = height;
}

void positions_of(const std::vector<int>& sequence,
                  std::vector<std::size_t>& pos) {
  pos.resize(sequence.size());
  for (std::size_t k = 0; k < sequence.size(); ++k)
    pos[static_cast<std::size_t>(sequence[k])] = k;
}

void extents_of(const Instance& inst, std::vector<double>& widths,
                std::vector<double>& heights) {
  widths.resize(inst.blocks.size());
  heights.resize(inst.blocks.size());
  for (std::size_t b = 0; b < inst.blocks.size(); ++b) {
    widths[b] = inst.blocks[b].width;
    heights[b] = inst.blocks[b].height;
  }
}

}  // namespace

Placement pack_fast(const Instance& inst, const SequencePair& sp) {
  const std::size_t n = inst.blocks.size();
  WP_REQUIRE(sp.valid(n), "invalid sequence pair for this instance");
  std::vector<std::size_t> pos_p;
  positions_of(sp.positive, pos_p);
  std::vector<double> widths, heights;
  extents_of(inst, widths, heights);
  Placement placement;
  placement.x.assign(n, 0.0);
  placement.y.assign(n, 0.0);
  detail::MaxFenwick fx, fy;
  fused_pass(sp.negative, pos_p, widths, heights, fx, fy, placement);
  return placement;
}

MovePacker::MovePacker(const Instance& inst, const SequencePair& sp)
    : n_(inst.blocks.size()) {
  extents_of(inst, widths_, heights_);
  reset(sp);
}

void MovePacker::reset(const SequencePair& sp) {
  WP_REQUIRE(sp.valid(n_), "invalid sequence pair for this instance");
  sp_ = sp;
  positions_of(sp_.positive, pos_p_);
  placement_.x.assign(n_, 0.0);
  placement_.y.assign(n_, 0.0);
  fused_pass(sp_.negative, pos_p_, widths_, heights_, fx_, fy_, placement_);
  // Pre-size the parking arrays: apply() swaps the live coordinate arrays
  // into them, and the pass then overwrites every entry.
  parked_x_.assign(n_, 0.0);
  parked_y_.assign(n_, 0.0);
  pending_ = false;
}

void MovePacker::apply_to_mirror(const AppliedMove& move) {
  apply_move(sp_, move);
  pos_p_[static_cast<std::size_t>(sp_.positive[move.i])] = move.i;
  pos_p_[static_cast<std::size_t>(sp_.positive[move.j])] = move.j;
}

const Placement& MovePacker::apply(const AppliedMove& move) {
  WP_REQUIRE(move.i < n_ && move.j < n_, "move indices out of range");
  // A still-pending candidate is accepted by moving on: its arrays become
  // the baseline parked below.
  move_ = move;
  pending_ = true;
  apply_to_mirror(move);
  parked_width_ = placement_.width;
  parked_height_ = placement_.height;
  placement_.x.swap(parked_x_);
  placement_.y.swap(parked_y_);
  fused_pass(sp_.negative, pos_p_, widths_, heights_, fx_, fy_, placement_);
  return placement_;
}

void MovePacker::commit() {
  WP_REQUIRE(pending_, "commit() without a pending candidate");
  pending_ = false;
}

void MovePacker::revert() {
  WP_REQUIRE(pending_, "revert() without a pending candidate");
  pending_ = false;
  placement_.x.swap(parked_x_);
  placement_.y.swap(parked_y_);
  placement_.width = parked_width_;
  placement_.height = parked_height_;
  apply_to_mirror(move_);  // moves are involutions
}

}  // namespace wp::fplan
