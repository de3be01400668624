// Fast sequence-pair packing: the O(n log n) weighted-LCS evaluation of
// Tang/Wong (match-position arrays + a Fenwick tree of prefix maxima over
// Γ+ positions), as a one-shot pack_fast() and as the annealer's MovePacker.
//
// Bit-identity contract: pack_fast() and MovePacker produce Placements
// bitwise equal to the naive O(n²) pack(). The naive relaxation computes
// each coordinate as a max over a candidate set of x[a]+w[a] (resp.
// y[a]+h[a]) terms; the fast pass takes the max over exactly the same set
// of exactly the same double terms, and IEEE max is associative and
// commutative, so evaluation order cannot change the result. The
// differential suite (tests/test_pack_equivalence.cpp) enforces this.
#pragma once

#include <cstddef>
#include <vector>

#include "floorplan/model.hpp"
#include "floorplan/sequence_pair.hpp"

namespace wp::fplan {

/// Which packing implementation the annealer (and everything layered on
/// it) uses. Both produce bitwise-identical placements: kNaive re-runs the
/// O(n²) relaxation per move and stays the differential-testing oracle,
/// kMovePacker is the production MovePacker.
enum class PackEngine { kNaive, kMovePacker };

const char* pack_engine_name(PackEngine engine);

namespace detail {

/// Fenwick (binary-indexed) tree of prefix maxima over sequence positions.
/// Values are positive (coordinates plus positive extents), so 0.0 is the
/// identity and matches the naive packer's x = 0 start.
///
/// reset() is an O(n) fill of size + 1 zeros, and update()/prefix_max()
/// are plain max walks. The pass that follows a reset touches O(n log n)
/// nodes anyway, and a contiguous fill costs far less than a stamp
/// compare and branch on every node visited. Measured on a 4-vCPU Xeon
/// (gcc 12, Release): a prefix_max() or update() call at 256 positions
/// went from 7.8 to 5.6 ns, and a MovePacker apply+revert at 1024 blocks
/// from 29–38 to 19–28 µs, when this replaced O(1) epoch-stamped resets.
class MaxFenwick {
 public:
  /// Sizes the tree for `size` positions, all empty.
  void reset(std::size_t size);

  /// Raises the stored maximum at `index` (0-based) to at least `value`.
  void update(std::size_t index, double value);

  /// Max over indices [0, count); 0.0 when the range is empty.
  double prefix_max(std::size_t count) const;

 private:
  std::vector<double> tree_;
};

}  // namespace detail

/// Packs the sequence pair in O(n log n): blocks are processed in Γ− order
/// while a Fenwick tree keyed by Γ+ position answers the
/// max-over-predecessors query of the weighted longest-common-subsequence
/// formulation. Bitwise identical to pack().
Placement pack_fast(const Instance& inst, const SequencePair& sp);

/// Keeps a packed placement in sync with an annealer's sequence pair.
/// Every candidate is re-packed by one fused pass: a single Γ− walk drives
/// both axis trees and yields the bounding box from the same reaches. The
/// committed baseline's coordinate arrays are parked by swapping, so
/// revert() is O(1) and nothing is copied per candidate.
///
/// Why no delta path: under the annealer's uniform global swaps a move
/// dirties most of the Γ− suffix, and a sequential pass over flat arrays
/// beats any dirty-suffix or prefix-index scheme at that density.
/// Measured on the batched engine this replaced, 98–99% of candidates
/// took its full pass, and forcing all of them there left anneal time
/// within noise at 33–1024 blocks.
///
/// Usage (one outstanding candidate at a time, the annealer's shape):
///   MovePacker packer(inst, sp);
///   AppliedMove move = random_move(sp, rng);
///   const Placement& candidate = packer.apply(move);
///   ... accept: packer.commit();
///   ... reject: undo_move(sp, move); packer.revert();
///
/// apply() while a candidate is pending commits it first (the annealer
/// moving on *is* acceptance). commit()/revert() without a pending
/// candidate die loudly.
class MovePacker {
 public:
  MovePacker(const Instance& inst, const SequencePair& sp);

  const Placement& placement() const { return placement_; }
  const SequencePair& sequence_pair() const { return sp_; }

  /// Applies `move` to the internal sequence-pair mirror and re-packs. The
  /// caller must have applied the same move to its own SequencePair
  /// (random_move already did). Returns the candidate placement — bitwise
  /// equal to pack(inst, caller's sp).
  const Placement& apply(const AppliedMove& move);

  /// Accepts the pending candidate: it becomes the new baseline.
  void commit();

  /// Rejects the pending candidate: the baseline placement is restored.
  /// The caller must have undone the move on its own pair (undo_move).
  void revert();

  /// Full resynchronisation to an arbitrary sequence pair.
  void reset(const SequencePair& sp);

 private:
  void apply_to_mirror(const AppliedMove& move);

  std::size_t n_ = 0;
  /// Flat copies of the block extents: the pass touches nothing else of
  /// Block, and Block carries a std::string name that would drag cold
  /// bytes through the hot loop's cache lines.
  std::vector<double> widths_, heights_;
  SequencePair sp_;                 ///< mirror of the caller's pair
  std::vector<std::size_t> pos_p_;  ///< block -> position in Γ+
  Placement placement_;
  detail::MaxFenwick fx_, fy_;

  // The pending candidate's undo state: its move and the parked baseline.
  AppliedMove move_;
  bool pending_ = false;
  std::vector<double> parked_x_, parked_y_;
  double parked_width_ = 0.0;
  double parked_height_ = 0.0;
};

}  // namespace wp::fplan
