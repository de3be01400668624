// Differential guardrail for the fast packing paths: pack_fast() and the
// MovePacker must be *bitwise* identical to the naive O(n²) pack() on
// randomized instances across sizes, including through long randomized
// apply/commit/revert chains with baselines parked for any number of
// rejected candidates. Also pins down the move involution invariants
// (apply+undo restores both permutations for every SpMove kind, i == j
// degenerate cases included), the MovePacker's loud-failure contract, and
// the engine-independence of the annealer: naive and MovePacker runs of
// the same seed produce the same trajectory, serial and pooled restarts
// the same best, and the ensemble pipeline the same samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/assert.hpp"

#include "floorplan/annealer.hpp"
#include "floorplan/instances.hpp"
#include "floorplan/model.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"
#include "gen/ensemble.hpp"
#include "graph/throughput_engine.hpp"
#include "proc/cpu.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wp::fplan {
namespace {

::testing::AssertionResult placements_identical(const Placement& a,
                                                const Placement& b) {
  if (a.x != b.x || a.y != b.y || a.width != b.width ||
      a.height != b.height) {
    auto result = ::testing::AssertionFailure()
                  << "placements diverge: bbox (" << a.width << " x "
                  << a.height << ") vs (" << b.width << " x " << b.height
                  << ")";
    for (std::size_t i = 0; i < a.x.size() && i < b.x.size(); ++i)
      if (a.x[i] != b.x[i] || a.y[i] != b.y[i])
        result << "; block " << i << " at (" << a.x[i] << "," << a.y[i]
               << ") vs (" << b.x[i] << "," << b.y[i] << ")";
    return result;
  }
  return ::testing::AssertionSuccess();
}

/// Randomized instance of the requested size (synthetic_instance needs
/// n >= 2; the single-block case is built by hand).
Instance instance_of(std::size_t n, std::uint64_t seed) {
  if (n >= 2) return synthetic_instance(n, seed);
  Instance inst;
  inst.name = "one";
  inst.blocks = {{"solo", 1.7, 0.9}};
  return inst;
}

class PackEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackEquivalence, FastMatchesNaiveOnRandomSequencePairs) {
  const std::size_t n = GetParam();
  const Instance inst = instance_of(n, 31 * n + 1);
  wp::Rng rng(1000 + n);
  const int rounds = n >= 100 ? 40 : 200;
  for (int round = 0; round < rounds; ++round) {
    const SequencePair sp = SequencePair::random(n, rng);
    ASSERT_TRUE(placements_identical(pack_fast(inst, sp), pack(inst, sp)))
        << "n=" << n << " round " << round;
  }
}

TEST_P(PackEquivalence, IncrementalConstructionMatchesNaive) {
  const std::size_t n = GetParam();
  const Instance inst = instance_of(n, 17 * n + 3);
  wp::Rng rng(2000 + n);
  const SequencePair sp = SequencePair::random(n, rng);
  const MovePacker packer(inst, sp);
  ASSERT_TRUE(placements_identical(packer.placement(), pack(inst, sp)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackEquivalence,
                         ::testing::Values<std::size_t>(1, 2, 3, 8, 32, 128));

TEST(PackEquivalence, FastMatchesNaiveOnStructuredPairs) {
  const Instance inst = cpu_instance();
  const std::size_t n = inst.blocks.size();
  SequencePair identity = SequencePair::identity(n);
  ASSERT_TRUE(
      placements_identical(pack_fast(inst, identity), pack(inst, identity)));
  SequencePair stacked = identity;  // reversed Γ+: a vertical stack
  std::reverse(stacked.positive.begin(), stacked.positive.end());
  ASSERT_TRUE(
      placements_identical(pack_fast(inst, stacked), pack(inst, stacked)));
}

// --------------------------------------------------------- MovePacker
//
// The IncrementalPacker and BatchedMoveEvaluator suites are named after
// the engines the MovePacker replaced; they keep their names so their
// results stay comparable across that change, and exercise the
// MovePacker.

class IncrementalEquivalence : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(IncrementalEquivalence, RandomMoveUndoChainsMatchNaive) {
  const std::size_t n = GetParam();
  const Instance inst = instance_of(n, 7 * n + 5);
  wp::Rng rng(3000 + n);
  SequencePair sp = SequencePair::random(n, rng);
  MovePacker packer(inst, sp);
  const int moves = n >= 100 ? 150 : 400;
  for (int m = 0; m < moves; ++m) {
    const AppliedMove move = random_move(sp, rng);
    const Placement& candidate = packer.apply(move);
    ASSERT_TRUE(placements_identical(candidate, pack(inst, sp)))
        << "n=" << n << " move " << m << " kind "
        << static_cast<int>(move.kind) << " i=" << move.i << " j=" << move.j;
    if (rng.chance(0.5)) {  // reject path: undo + revert must restore
      undo_move(sp, move);
      packer.revert();
      ASSERT_TRUE(placements_identical(packer.placement(), pack(inst, sp)))
          << "n=" << n << " after revert of move " << m;
      ASSERT_EQ(packer.sequence_pair().positive, sp.positive);
      ASSERT_EQ(packer.sequence_pair().negative, sp.negative);
    }  // accept path: the next apply() commits implicitly
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IncrementalEquivalence,
                         ::testing::Values<std::size_t>(2, 3, 8, 32, 128));

TEST(IncrementalPacker, FallbackAndDeltaPathsAgree) {
  // Two ways to reach each state: per-move apply()/revert() against the
  // parked baseline, and a full reset() resynchronisation to the caller's
  // pair. Both must land on the same bits after every move.
  const Instance inst = synthetic_instance(32, 9);
  wp::Rng rng(11);
  SequencePair sp = SequencePair::random(32, rng);
  MovePacker via_moves(inst, sp);
  MovePacker via_reset(inst, sp);
  for (int m = 0; m < 250; ++m) {
    const AppliedMove move = random_move(sp, rng);
    via_reset.reset(sp);
    ASSERT_TRUE(placements_identical(via_moves.apply(move),
                                     via_reset.placement()))
        << "move " << m;
    if (rng.chance(0.3)) {
      undo_move(sp, move);
      via_moves.revert();
      via_reset.reset(sp);
      ASSERT_TRUE(placements_identical(via_moves.placement(),
                                       via_reset.placement()));
    }
  }
}

TEST(IncrementalPacker, DegenerateEqualIndexMovesAreNoOps) {
  const Instance inst = synthetic_instance(8, 4);
  wp::Rng rng(5);
  const SequencePair sp = SequencePair::random(8, rng);
  for (const SpMove kind :
       {SpMove::kSwapPositive, SpMove::kSwapNegative, SpMove::kSwapBoth}) {
    MovePacker packer(inst, sp);
    const Placement before = packer.placement();
    const AppliedMove degenerate{kind, 3, 3};
    ASSERT_TRUE(placements_identical(packer.apply(degenerate), before));
    EXPECT_EQ(packer.sequence_pair().positive, sp.positive);
    EXPECT_EQ(packer.sequence_pair().negative, sp.negative);
    packer.revert();
    ASSERT_TRUE(placements_identical(packer.placement(), before));
  }
}

TEST(IncrementalPacker, ResetResynchronisesToArbitraryPairs) {
  const Instance inst = synthetic_instance(12, 6);
  wp::Rng rng(21);
  SequencePair sp = SequencePair::random(12, rng);
  MovePacker packer(inst, sp);
  for (int round = 0; round < 10; ++round) {
    const SequencePair fresh = SequencePair::random(12, rng);
    packer.reset(fresh);
    ASSERT_TRUE(placements_identical(packer.placement(), pack(inst, fresh)));
  }
}

TEST(IncrementalPacker, RejectsInvalidInput) {
  const Instance inst = synthetic_instance(6, 2);
  wp::Rng rng(3);
  SequencePair sp = SequencePair::random(6, rng);
  EXPECT_THROW(MovePacker(inst, SequencePair::identity(4)),
               wp::ContractViolation);
  MovePacker packer(inst, sp);
  EXPECT_THROW(packer.reset(SequencePair::identity(7)), wp::ContractViolation);
  EXPECT_THROW(packer.apply({SpMove::kSwapBoth, 0, 6}),
               wp::ContractViolation);
  EXPECT_THROW(packer.apply({SpMove::kSwapPositive, 6, 0}),
               wp::ContractViolation);
  // A rejected input leaves the packer usable and in sync.
  const AppliedMove move = random_move(sp, rng);
  ASSERT_TRUE(placements_identical(packer.apply(move), pack(inst, sp)));
}

TEST(IncrementalPacker, DoubleRevertDiesLoudly) {
  // Pins the loud-failure contract: revert() is one level deep, and a
  // second revert() without an intervening apply() must throw rather than
  // silently corrupt the placement.
  const Instance inst = synthetic_instance(10, 8);
  wp::Rng rng(9);
  SequencePair sp = SequencePair::random(10, rng);
  MovePacker packer(inst, sp);
  const AppliedMove move = random_move(sp, rng);
  packer.apply(move);
  undo_move(sp, move);
  packer.revert();
  EXPECT_THROW(packer.revert(), wp::ContractViolation);
  ASSERT_TRUE(placements_identical(packer.placement(), pack(inst, sp)));
}

class BatchedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchedEquivalence, SpeculativeChainsMatchNaiveForEveryWindowSize) {
  // A speculation window is a run of K candidates evaluated against one
  // committed baseline: K − 1 rejections, then a commit. Every candidate,
  // every revert and every commit must leave the packer bitwise equal to
  // a fresh naive pack, however long the baseline stays parked.
  const std::size_t n = GetParam();
  const Instance inst = instance_of(n, 13 * n + 7);
  for (const int k : {1, 4, 16}) {
    wp::Rng rng(4000 + n);
    SequencePair sp = SequencePair::random(n, rng);
    MovePacker packer(inst, sp);
    const int moves = n >= 100 ? 150 : 400;
    for (int m = 0; m < moves; ++m) {
      const AppliedMove move = random_move(sp, rng);
      ASSERT_TRUE(placements_identical(packer.apply(move), pack(inst, sp)))
          << "n=" << n << " K=" << k << " move " << m << " kind "
          << static_cast<int>(move.kind) << " i=" << move.i
          << " j=" << move.j;
      if (m % k != k - 1) {  // reject: undo + revert must restore baseline
        undo_move(sp, move);
        packer.revert();
        ASSERT_TRUE(placements_identical(packer.placement(), pack(inst, sp)))
            << "n=" << n << " K=" << k << " after revert of move " << m;
        ASSERT_EQ(packer.sequence_pair().positive, sp.positive);
        ASSERT_EQ(packer.sequence_pair().negative, sp.negative);
      } else {
        packer.commit();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchedEquivalence,
                         ::testing::Values<std::size_t>(2, 3, 8, 32, 128));

TEST(BatchedMoveEvaluator, AllEvaluationPathsAgreeOnTheSameChain) {
  // The three packing paths in the tree — naive pack(), one-shot
  // pack_fast() and the MovePacker's apply/commit/revert — walk the same
  // move chain and must agree bit for bit throughout.
  const std::size_t n = 48;
  const Instance inst = synthetic_instance(n, 29);
  wp::Rng rng(31);
  SequencePair sp = SequencePair::random(n, rng);
  MovePacker packer(inst, sp);
  for (int m = 0; m < 300; ++m) {
    const AppliedMove move = random_move(sp, rng);
    const Placement reference = pack(inst, sp);
    ASSERT_TRUE(placements_identical(pack_fast(inst, sp), reference))
        << "pack_fast, move " << m;
    ASSERT_TRUE(placements_identical(packer.apply(move), reference))
        << "MovePacker, move " << m;
    if (rng.chance(0.6)) {
      undo_move(sp, move);
      packer.revert();
    } else {
      packer.commit();
    }
  }
}

TEST(BatchedMoveEvaluator, ImplicitCommitMatchesExplicitCommit) {
  // apply() while a candidate is pending commits it. An accept-every-move
  // chain driven that way must walk the same states as one with explicit
  // commit() calls, and both must track naive pack().
  const Instance inst = synthetic_instance(24, 41);
  wp::Rng rng(43);
  SequencePair sp = SequencePair::random(24, rng);
  MovePacker implicit(inst, sp);
  MovePacker explicit_commit(inst, sp);
  for (int m = 0; m < 120; ++m) {
    const AppliedMove move = random_move(sp, rng);
    implicit.apply(move);  // previous candidate (if any) commits here
    explicit_commit.apply(move);
    explicit_commit.commit();
    ASSERT_TRUE(placements_identical(implicit.placement(),
                                     explicit_commit.placement()))
        << "move " << m;
    ASSERT_TRUE(
        placements_identical(explicit_commit.placement(), pack(inst, sp)))
        << "move " << m;
  }
}

TEST(BatchedMoveEvaluator, FallbackBoundariesAndDegenerateMoves) {
  const Instance inst = synthetic_instance(8, 4);
  wp::Rng rng(5);
  const SequencePair sp = SequencePair::random(8, rng);
  // Degenerate i == j moves are no-ops, revert cleanly, and committing
  // one must not disturb the baseline a later revert restores.
  for (const SpMove kind :
       {SpMove::kSwapPositive, SpMove::kSwapNegative, SpMove::kSwapBoth}) {
    MovePacker packer(inst, sp);
    const Placement before = packer.placement();
    const AppliedMove degenerate{kind, 5, 5};
    ASSERT_TRUE(placements_identical(packer.apply(degenerate), before));
    packer.revert();
    ASSERT_TRUE(placements_identical(packer.placement(), before));
    packer.apply(degenerate);
    packer.commit();
    ASSERT_TRUE(placements_identical(packer.placement(), before));
    SequencePair probe = sp;
    const AppliedMove real{kind, 1, 6};
    apply_move(probe, real);
    ASSERT_TRUE(placements_identical(packer.apply(real), pack(inst, probe)));
    packer.revert();
    ASSERT_TRUE(placements_identical(packer.placement(), before));
  }
  // The smallest legal instance exercises the n == 2 boundary where every
  // move dirties everything.
  const Instance tiny = synthetic_instance(2, 6);
  wp::Rng tiny_rng(7);
  SequencePair tiny_sp = SequencePair::random(2, tiny_rng);
  MovePacker packer(tiny, tiny_sp);
  for (int m = 0; m < 50; ++m) {
    const AppliedMove move = random_move(tiny_sp, tiny_rng);
    ASSERT_TRUE(
        placements_identical(packer.apply(move), pack(tiny, tiny_sp)));
    undo_move(tiny_sp, move);
    packer.revert();
  }
}

TEST(BatchedMoveEvaluator, ResetResynchronisesToArbitraryPairs) {
  // reset() with a candidate pending discards it: the packer resumes from
  // the new pair, and revert() has nothing left to undo.
  const Instance inst = synthetic_instance(12, 6);
  wp::Rng rng(21);
  SequencePair sp = SequencePair::random(12, rng);
  MovePacker packer(inst, sp);
  for (int round = 0; round < 10; ++round) {
    packer.apply(random_move(sp, rng));
    sp = SequencePair::random(12, rng);
    packer.reset(sp);
    ASSERT_TRUE(placements_identical(packer.placement(), pack(inst, sp)));
    EXPECT_THROW(packer.revert(), wp::ContractViolation);
    const AppliedMove move = random_move(sp, rng);
    ASSERT_TRUE(placements_identical(packer.apply(move), pack(inst, sp)));
  }
}

TEST(BatchedMoveEvaluator, MisuseDiesLoudly) {
  const Instance inst = synthetic_instance(6, 2);
  wp::Rng rng(3);
  SequencePair sp = SequencePair::random(6, rng);
  MovePacker packer(inst, sp);
  EXPECT_THROW(packer.commit(), wp::ContractViolation);  // nothing pending
  EXPECT_THROW(packer.revert(), wp::ContractViolation);
  const AppliedMove move = random_move(sp, rng);
  packer.apply(move);
  packer.commit();
  EXPECT_THROW(packer.commit(), wp::ContractViolation);  // double commit
  EXPECT_THROW(packer.revert(), wp::ContractViolation);  // revert after commit
  ASSERT_TRUE(placements_identical(packer.placement(), pack(inst, sp)));
}

// --------------------------------------------------------------- moves

TEST(Moves, ApplyTwiceIsIdentityForEveryKind) {
  wp::Rng rng(8);
  SequencePair sp = SequencePair::random(9, rng);
  const SequencePair original = sp;
  const std::vector<std::pair<std::size_t, std::size_t>> index_pairs = {
      {0, 5}, {5, 0}, {8, 1}, {3, 3}, {0, 0}, {8, 8}, {2, 7}};
  for (const SpMove kind :
       {SpMove::kSwapPositive, SpMove::kSwapNegative, SpMove::kSwapBoth}) {
    for (const auto& [i, j] : index_pairs) {
      const AppliedMove move{kind, i, j};
      apply_move(sp, move);
      apply_move(sp, move);
      ASSERT_EQ(sp.positive, original.positive)
          << "kind " << static_cast<int>(kind) << " i=" << i << " j=" << j;
      ASSERT_EQ(sp.negative, original.negative);
    }
  }
}

TEST(Moves, UndoRestoresBothPermutationsForEveryKind) {
  wp::Rng rng(13);
  SequencePair sp = SequencePair::random(7, rng);
  const SequencePair original = sp;
  for (const SpMove kind :
       {SpMove::kSwapPositive, SpMove::kSwapNegative, SpMove::kSwapBoth}) {
    for (std::size_t i = 0; i < 7; ++i)
      for (std::size_t j = 0; j < 7; ++j) {  // includes every i == j case
        const AppliedMove move{kind, i, j};
        apply_move(sp, move);
        undo_move(sp, move);
        ASSERT_EQ(sp.positive, original.positive);
        ASSERT_EQ(sp.negative, original.negative);
      }
  }
}

TEST(Moves, EqualIndexMovesAreNoOps) {
  wp::Rng rng(2);
  SequencePair sp = SequencePair::random(5, rng);
  const SequencePair original = sp;
  for (const SpMove kind :
       {SpMove::kSwapPositive, SpMove::kSwapNegative, SpMove::kSwapBoth}) {
    apply_move(sp, {kind, 2, 2});
    EXPECT_EQ(sp.positive, original.positive);
    EXPECT_EQ(sp.negative, original.negative);
  }
}

TEST(Moves, RandomMoveDrawsDistinctIndicesAndValidKinds) {
  wp::Rng rng(55);
  SequencePair sp = SequencePair::random(6, rng);
  for (int it = 0; it < 500; ++it) {
    const SequencePair before = sp;
    const AppliedMove move = random_move(sp, rng);
    EXPECT_NE(move.i, move.j);
    EXPECT_LT(static_cast<int>(move.kind), static_cast<int>(SpMove::kCount));
    EXPECT_LT(move.i, 6u);
    EXPECT_LT(move.j, 6u);
    undo_move(sp, move);
    ASSERT_EQ(sp.positive, before.positive);
    ASSERT_EQ(sp.negative, before.negative);
  }
}

// ----------------------------------------------- annealer determinism

bool identical_results(const AnnealResult& a, const AnnealResult& b) {
  return a.cost == b.cost && a.area == b.area &&
         a.wirelength == b.wirelength && a.throughput == b.throughput &&
         a.seed == b.seed && a.accepted_moves == b.accepted_moves &&
         a.evaluations == b.evaluations &&
         a.sequence_pair.positive == b.sequence_pair.positive &&
         a.sequence_pair.negative == b.sequence_pair.negative &&
         a.placement.x == b.placement.x && a.placement.y == b.placement.y &&
         a.placement.width == b.placement.width &&
         a.placement.height == b.placement.height;
}

TEST(AnnealerEngines, AreaDrivenRunsAreBitIdenticalAcrossEngines) {
  const Instance inst = synthetic_instance(16, 3);
  AnnealOptions naive;
  naive.iterations = 2500;
  naive.seed = 17;
  naive.pack_engine = PackEngine::kNaive;
  AnnealOptions packer = naive;
  packer.pack_engine = PackEngine::kMovePacker;
  EXPECT_TRUE(identical_results(anneal(inst, naive), anneal(inst, packer)));
}

TEST(AnnealerEngines, ThroughputDrivenRunsAreBitIdenticalAcrossEngines) {
  const Instance inst = cpu_instance();
  const auto graph = wp::proc::make_cpu_graph();
  AnnealOptions naive;
  naive.iterations = 1200;
  naive.seed = 23;
  naive.weight_throughput = 200.0;
  naive.delay_model.clock_ps = 300.0;
  naive.pack_engine = PackEngine::kNaive;
  AnnealOptions packer = naive;
  packer.pack_engine = PackEngine::kMovePacker;
  // Each side owns its engine: engines are stateful, one per run.
  wp::graph::ThroughputEngine naive_engine(graph);
  wp::graph::ThroughputEngine packer_engine(graph);
  naive.throughput_engine = &naive_engine;
  packer.throughput_engine = &packer_engine;
  const AnnealResult reference = anneal(inst, naive);
  const AnnealResult result = anneal(inst, packer);
  EXPECT_TRUE(identical_results(reference, result));
  EXPECT_EQ(reference.throughput_evals, result.throughput_evals);
}

TEST(AnnealerEngines, PooledRestartsMatchSerialForBothEngines) {
  // Extends the sequential≡pooled guarantee to the floorplan path: for
  // each engine, anneal_parallel must reproduce the sequential best-of
  // exactly, and the two engines must land on the same best.
  const Instance inst = synthetic_instance(12, 5);
  AnnealResult best_per_engine[2];
  int engine_index = 0;
  for (const PackEngine engine :
       {PackEngine::kNaive, PackEngine::kMovePacker}) {
    ParallelAnnealOptions job;
    job.base.iterations = 1200;
    job.base.seed = 100;
    job.base.pack_engine = engine;
    job.restarts = 4;

    AnnealResult sequential;
    for (int i = 0; i < job.restarts; ++i) {
      AnnealOptions options = job.base;
      options.seed = job.base.seed + static_cast<std::uint64_t>(i);
      AnnealResult restart = anneal(inst, options);
      if (i == 0 || restart.cost < sequential.cost)
        sequential = std::move(restart);
    }
    for (const std::size_t workers : {1u, 4u}) {
      wp::ThreadPool pool(workers);
      job.pool = &pool;
      EXPECT_TRUE(identical_results(sequential, anneal_parallel(inst, job)))
          << pack_engine_name(engine) << " engine, " << workers
          << " workers";
    }
    best_per_engine[engine_index++] = sequential;
  }
  EXPECT_TRUE(identical_results(best_per_engine[0], best_per_engine[1]));
}

TEST(AnnealerEngines, EnsemblePipelineIsEngineIndependent) {
  // The ensemble runner inherits the engine through its AnnealOptions; the
  // whole generate→floorplan→RS→throughput pipeline must produce identical
  // samples either way (anneal_ms excluded from equality by design).
  gen::EnsembleConfig config;
  config.seed = 77;
  config.samples_per_family = 3;
  config.anneal.iterations = 400;
  gen::FamilySpec family;
  family.name = "ba-12";
  family.topology.family = gen::TopologyFamily::kBarabasiAlbert;
  family.topology.num_nodes = 12;
  family.topology.ba_attach = 2;
  config.families.push_back(family);

  config.anneal.pack_engine = PackEngine::kNaive;
  const gen::EnsembleReport with_naive = gen::run_ensemble_sequential(config);
  config.anneal.pack_engine = PackEngine::kMovePacker;
  const gen::EnsembleReport with_packer = gen::run_ensemble_sequential(config);
  ASSERT_EQ(with_naive.samples.size(), with_packer.samples.size());
  for (std::size_t i = 0; i < with_naive.samples.size(); ++i)
    EXPECT_TRUE(with_naive.samples[i] == with_packer.samples[i])
        << "sample " << i << " diverged between engines";
}

}  // namespace
}  // namespace wp::fplan
