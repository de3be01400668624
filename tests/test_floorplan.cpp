// Floorplanning tests: sequence-pair packing semantics, overlap-freedom as
// a property over random instances, wirelength (the reference and the flat
// net pass, bit for bit), the packer's Fenwick tree, the wire-delay →
// relay-station model, the parser, and the annealer's improvement
// guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/assert.hpp"

#include "floorplan/annealer.hpp"
#include "floorplan/instances.hpp"
#include "floorplan/model.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"
#include "fresh_howard.hpp"
#include "gen/instances.hpp"
#include "gen/topologies.hpp"
#include "proc/cpu.hpp"
#include "util/thread_pool.hpp"

namespace wp::fplan {
namespace {

Instance two_blocks() {
  Instance inst;
  inst.name = "two";
  inst.blocks = {{"a", 2, 1}, {"b", 3, 2}};
  inst.nets = {{"ab", 0, 1}};
  return inst;
}

bool overlaps(const Instance& inst, const Placement& p, std::size_t i,
              std::size_t j) {
  const double eps = 1e-9;
  return p.x[i] + inst.blocks[i].width > p.x[j] + eps &&
         p.x[j] + inst.blocks[j].width > p.x[i] + eps &&
         p.y[i] + inst.blocks[i].height > p.y[j] + eps &&
         p.y[j] + inst.blocks[j].height > p.y[i] + eps;
}

TEST(SequencePair, IdentityPacksInARow) {
  const Instance inst = two_blocks();
  const auto sp = SequencePair::identity(2);
  const Placement p = pack(inst, sp);
  // a before b in both sequences: a left of b.
  EXPECT_DOUBLE_EQ(p.x[0], 0.0);
  EXPECT_DOUBLE_EQ(p.x[1], 2.0);
  EXPECT_DOUBLE_EQ(p.y[0], 0.0);
  EXPECT_DOUBLE_EQ(p.y[1], 0.0);
  EXPECT_DOUBLE_EQ(p.width, 5.0);
  EXPECT_DOUBLE_EQ(p.height, 2.0);
}

TEST(SequencePair, ReversedPositiveStacksVertically) {
  const Instance inst = two_blocks();
  SequencePair sp;
  sp.positive = {1, 0};  // b before a in Γ+, a before b in Γ-: a below b.
  sp.negative = {0, 1};
  const Placement p = pack(inst, sp);
  EXPECT_DOUBLE_EQ(p.x[0], 0.0);
  EXPECT_DOUBLE_EQ(p.x[1], 0.0);
  EXPECT_DOUBLE_EQ(p.y[0], 0.0);
  EXPECT_DOUBLE_EQ(p.y[1], 1.0);  // b above a
  EXPECT_DOUBLE_EQ(p.width, 3.0);
  EXPECT_DOUBLE_EQ(p.height, 3.0);
}

TEST(SequencePair, ValidityCheck) {
  SequencePair sp = SequencePair::identity(3);
  EXPECT_TRUE(sp.valid(3));
  sp.positive[0] = 2;  // duplicate
  EXPECT_FALSE(sp.valid(3));
  EXPECT_THROW(pack(two_blocks(), sp), wp::ContractViolation);
}

class PackingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackingProperty, RandomSequencePairsNeverOverlap) {
  wp::Rng rng(GetParam());
  const Instance inst =
      synthetic_instance(static_cast<std::size_t>(rng.range(3, 12)),
                         GetParam());
  for (int round = 0; round < 20; ++round) {
    const auto sp = SequencePair::random(inst.blocks.size(), rng);
    const Placement p = pack(inst, sp);
    for (std::size_t i = 0; i < inst.blocks.size(); ++i) {
      EXPECT_GE(p.x[i], 0.0);
      EXPECT_GE(p.y[i], 0.0);
      EXPECT_LE(p.x[i] + inst.blocks[i].width, p.width + 1e-9);
      EXPECT_LE(p.y[i] + inst.blocks[i].height, p.height + 1e-9);
      for (std::size_t j = i + 1; j < inst.blocks.size(); ++j)
        ASSERT_FALSE(overlaps(inst, p, i, j))
            << "blocks " << i << "," << j << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, PackingProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(SequencePair, MovesAreInvolutions) {
  wp::Rng rng(5);
  SequencePair sp = SequencePair::random(8, rng);
  const SequencePair before = sp;
  for (int i = 0; i < 100; ++i) {
    const AppliedMove move = random_move(sp, rng);
    undo_move(sp, move);
    ASSERT_EQ(sp.positive, before.positive);
    ASSERT_EQ(sp.negative, before.negative);
  }
}

TEST(Model, NetLengthIsCenterToCenterManhattan) {
  const Instance inst = two_blocks();
  Placement p;
  p.x = {0, 4};
  p.y = {0, 3};
  // centers: (1, 0.5) and (5.5, 4): |dx|+|dy| = 4.5 + 3.5 = 8.
  EXPECT_DOUBLE_EQ(net_length(inst, p, inst.nets[0]), 8.0);
  EXPECT_DOUBLE_EQ(total_wirelength(inst, p), 8.0);
}

TEST(Model, RelayStationsFromWireDelay) {
  WireDelayModel model;  // 150 ps/mm, 500 ps clock -> 3.33 mm reach
  EXPECT_EQ(relay_stations_for_length(0.0, model), 0);
  EXPECT_EQ(relay_stations_for_length(3.0, model), 0);
  EXPECT_EQ(relay_stations_for_length(3.4, model), 1);
  EXPECT_EQ(relay_stations_for_length(6.8, model), 2);
  EXPECT_EQ(relay_stations_for_length(10.1, model), 3);
  EXPECT_NEAR(model.reachable_mm(), 10.0 / 3.0, 1e-9);
}

TEST(Model, RsDemandTakesWorstNetPerConnection) {
  Instance inst;
  inst.blocks = {{"a", 1, 1}, {"b", 1, 1}, {"c", 1, 1}};
  inst.nets = {{"link", 0, 1}, {"link", 0, 2}};
  Placement p;
  p.x = {0, 0, 40};
  p.y = {0, 0, 0};
  p.width = 41;
  p.height = 1;
  const auto demand = rs_demand(inst, p, WireDelayModel{});
  ASSERT_EQ(demand.size(), 1u);
  EXPECT_EQ(demand[0].first, "link");
  EXPECT_EQ(demand[0].second, relay_stations_for_length(40.0, {}));
}

TEST(Model, RelayStationsRejectNonFiniteAndOverlongWires) {
  const WireDelayModel model;  // 0.3 stages per mm
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(relay_stations_for_length(inf, model), wp::ContractViolation);
  EXPECT_THROW(relay_stations_for_length(std::nan(""), model),
               wp::ContractViolation);
  EXPECT_THROW(relay_stations_for_length(-1.0, model), wp::ContractViolation);
  // 1e150 mm (blocks of a 1e300 mm² area draw) and 1e10 mm both need more
  // stages than an int holds; 1e9 mm still fits.
  EXPECT_THROW(relay_stations_for_length(1e150, model), wp::ContractViolation);
  EXPECT_THROW(relay_stations_for_length(1e10, model), wp::ContractViolation);
  EXPECT_EQ(relay_stations_for_length(1e9, model), 300000000 - 1);
}

/// Random placements of `inst`: packs of random sequence pairs.
std::vector<Placement> random_placements(const Instance& inst, int count,
                                         std::uint64_t seed) {
  wp::Rng rng(seed);
  std::vector<Placement> placements;
  for (int i = 0; i < count; ++i)
    placements.push_back(
        pack(inst, SequencePair::random(inst.blocks.size(), rng)));
  return placements;
}

Instance generated_instance(wp::gen::TopologyFamily family, int nodes,
                            std::uint64_t seed) {
  wp::gen::TopologyConfig config;
  config.family = family;
  config.num_nodes = nodes;
  wp::gen::SystemConfig system;
  system.build_netlist = false;
  wp::Rng rng(seed);
  const auto topology = wp::gen::generate_topology(config, rng);
  return wp::gen::dress_topology(topology, system, rng).instance;
}

TEST(Model, DeriveMatchesRsDemandAndWirelengthBitForBit) {
  // The CPU instance carries two CU-IC nets (the per-connection max), BA-128
  // hub-heavy fan-in, the mesh a regular grid of short nets.
  const std::vector<Instance> instances = {
      cpu_instance(),
      generated_instance(wp::gen::TopologyFamily::kBarabasiAlbert, 128, 3),
      generated_instance(wp::gen::TopologyFamily::kMesh, 36, 4)};
  WireDelayModel tight;
  tight.clock_ps = 250.0;
  for (const Instance& inst : instances) {
    const DemandIndex index(inst);
    const NetGeometry nets(inst);
    std::vector<int> rs;
    for (const Placement& p : random_placements(inst, 20, inst.nets.size())) {
      const double reference = total_wirelength(inst, p);
      EXPECT_EQ(index.derive(p, tight, rs), reference);
      // The area path's flat pass, which interns no labels.
      EXPECT_EQ(nets.wirelength(p), reference);
      for (std::size_t i = 0; i < inst.nets.size(); ++i)
        ASSERT_EQ(nets.length(p, i), net_length(inst, p, inst.nets[i]));
      const auto demand = rs_demand(inst, p, tight);
      ASSERT_EQ(demand.size(), rs.size());
      ASSERT_EQ(index.labels().size(), rs.size());
      for (std::size_t c = 0; c < rs.size(); ++c) {
        EXPECT_EQ(demand[c].first, index.labels()[c]);
        EXPECT_EQ(demand[c].second, rs[c]) << demand[c].first;
      }
    }
  }
}

TEST(Model, DemandIndexRangeChecksNetsOnce) {
  Instance inst = two_blocks();
  inst.nets.push_back({"bad", 0, 2});
  EXPECT_THROW(DemandIndex{inst}, wp::ContractViolation);
  EXPECT_THROW(NetGeometry{inst}, wp::ContractViolation);
}

/// Drives `tree` through one packing-shaped pass over `size` positions —
/// a prefix_max() query then an update() per step, at seeded random keys
/// with positive values — and returns every query's answer.
std::vector<double> fenwick_pass(detail::MaxFenwick& tree, std::size_t size,
                                 std::uint64_t seed) {
  wp::Rng rng(seed);
  tree.reset(size);
  std::vector<double> answers;
  for (std::size_t step = 0; step < 2 * size; ++step) {
    const auto key = static_cast<std::size_t>(rng.below(size));
    answers.push_back(tree.prefix_max(key + 1));
    tree.update(key, 0.5 + 100.0 * rng.uniform());
  }
  answers.push_back(tree.prefix_max(size));
  return answers;
}

TEST(MaxFenwick, ReusedTreeMatchesAFreshTreeAcrossSizes) {
  // reset() must leave no trace of the previous pass whether the tree
  // grows, shrinks or keeps its size: every pass of one reused tree must
  // answer exactly like a tree built for that pass alone.
  detail::MaxFenwick reused;
  std::uint64_t seed = 1;
  for (const std::size_t size : {16u, 256u, 16u, 16u, 256u, 256u, 1u, 33u}) {
    detail::MaxFenwick fresh;
    EXPECT_EQ(fenwick_pass(reused, size, seed), fenwick_pass(fresh, size, seed))
        << "size " << size << " seed " << seed;
    ++seed;
  }
}

TEST(MaxFenwick, PrefixMaxMatchesALinearScan) {
  detail::MaxFenwick tree;
  tree.reset(40);
  std::vector<double> values(40, 0.0);
  wp::Rng rng(11);
  for (int step = 0; step < 200; ++step) {
    const auto key = static_cast<std::size_t>(rng.below(values.size()));
    const double value = 0.5 + 10.0 * rng.uniform();
    tree.update(key, value);
    values[key] = std::max(values[key], value);
    double expected = 0.0;  // the empty prefix's identity
    for (std::size_t count = 0; count <= values.size(); ++count) {
      ASSERT_EQ(tree.prefix_max(count), expected) << "count " << count;
      if (count < values.size()) expected = std::max(expected, values[count]);
    }
  }
}

TEST(Parser, RoundTrips) {
  const Instance inst = cpu_instance();
  EXPECT_EQ(inst.blocks.size(), 5u);
  EXPECT_EQ(inst.nets.size(), 11u);  // CU-IC twice + 9 others
  const Instance again = parse_instance(serialize_instance(inst));
  EXPECT_EQ(again.blocks.size(), inst.blocks.size());
  EXPECT_EQ(again.nets.size(), inst.nets.size());
  EXPECT_EQ(again.blocks[1].name, "IC");
  EXPECT_DOUBLE_EQ(again.blocks[1].width, 2.4);
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse_instance("block a 1"), wp::ContractViolation);
  EXPECT_THROW(parse_instance("block a 1 1\nblock a 2 2"),
               wp::ContractViolation);
  EXPECT_THROW(parse_instance("block a 1 1\nnet n a missing"),
               wp::ContractViolation);
  EXPECT_THROW(parse_instance("frob"), wp::ContractViolation);
  EXPECT_THROW(parse_instance("# only a comment"), wp::ContractViolation);
  EXPECT_THROW(parse_instance("block a 0 1"), wp::ContractViolation);
}

TEST(Annealer, ImprovesAreaOverRandomStart) {
  const Instance inst = synthetic_instance(12, 7);
  wp::Rng rng(1);
  // Mean random-packing area as the baseline.
  double random_area = 0;
  for (int i = 0; i < 20; ++i)
    random_area +=
        pack(inst, SequencePair::random(inst.blocks.size(), rng)).area();
  random_area /= 20;

  AnnealOptions options;
  options.iterations = 4000;
  options.weight_wirelength = 0.0;
  const AnnealResult result = anneal(inst, options);
  EXPECT_LT(result.area, random_area);
  EXPECT_GT(result.accepted_moves, 0);
  // The result must still be a legal packing.
  for (std::size_t i = 0; i < inst.blocks.size(); ++i)
    for (std::size_t j = i + 1; j < inst.blocks.size(); ++j)
      ASSERT_FALSE(overlaps(inst, result.placement, i, j));
}

TEST(Annealer, ThroughputDrivenBeatsAreaDrivenOnThroughput) {
  // The CPU instance with the system min-cycle-ratio as objective: giving
  // throughput weight must not yield a slower system than ignoring it.
  const Instance inst = cpu_instance();
  const ThroughputFn throughput_fn =
      wp::reference::fresh_howard_fn(wp::proc::make_cpu_graph());

  WireDelayModel tight;
  tight.clock_ps = 250.0;  // aggressive clock: wires need pipelining

  AnnealOptions area_driven;
  area_driven.iterations = 3000;
  area_driven.seed = 9;
  area_driven.delay_model = tight;

  AnnealOptions th_driven = area_driven;
  th_driven.weight_throughput = 50.0;
  th_driven.throughput_fn = throughput_fn;

  const AnnealResult area_result = anneal(inst, area_driven);
  const AnnealResult th_result = anneal(inst, th_driven);

  const double area_th =
      throughput_fn(rs_demand(inst, area_result.placement, tight));
  EXPECT_GE(th_result.throughput + 1e-9, area_th);
}

TEST(Annealer, RejectsMissingThroughputFn) {
  AnnealOptions options;
  options.weight_throughput = 1.0;
  EXPECT_THROW(anneal(two_blocks(), options), wp::ContractViolation);
}

TEST(Annealer, RejectsMeaninglessSchedules) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  auto rejects = [](auto mutate) {
    AnnealOptions options;
    options.iterations = 10;
    mutate(options);
    EXPECT_THROW(anneal(two_blocks(), options), wp::ContractViolation);
  };
  rejects([&](AnnealOptions& o) {
    o.cooling = nan;
    o.initial_temperature = -1;
  });
  rejects([](AnnealOptions& o) { o.initial_temperature = 0; });
  rejects([&](AnnealOptions& o) { o.initial_temperature = inf; });
  rejects([&](AnnealOptions& o) { o.initial_temperature = nan; });
  rejects([](AnnealOptions& o) { o.cooling = 0; });
  rejects([](AnnealOptions& o) { o.cooling = 1.5; });
  rejects([&](AnnealOptions& o) { o.cooling = nan; });
  rejects([](AnnealOptions& o) { o.weight_area = -1; });
  rejects([&](AnnealOptions& o) { o.weight_wirelength = nan; });
  rejects([&](AnnealOptions& o) { o.weight_throughput = inf; });

  // The edges of the valid ranges still run.
  AnnealOptions edge;
  edge.iterations = 10;
  edge.cooling = 1.0;
  edge.weight_area = 0.0;
  EXPECT_NO_THROW(anneal(two_blocks(), edge));
}

bool identical_results(const AnnealResult& a, const AnnealResult& b) {
  return a.cost == b.cost && a.area == b.area &&
         a.wirelength == b.wirelength && a.throughput == b.throughput &&
         a.seed == b.seed && a.accepted_moves == b.accepted_moves &&
         a.sequence_pair.positive == b.sequence_pair.positive &&
         a.sequence_pair.negative == b.sequence_pair.negative &&
         a.placement.x == b.placement.x && a.placement.y == b.placement.y;
}

TEST(AnnealParallel, BitIdenticalToSequentialRestarts) {
  // The acceptance bar of the parallel engine: anneal_parallel with fixed
  // seeds must return exactly the best-of of the equivalent sequential
  // restarts, regardless of pool size or scheduling.
  const Instance inst = cpu_instance();
  const auto graph = wp::proc::make_cpu_graph();

  ParallelAnnealOptions job;
  job.base.iterations = 1500;
  job.base.seed = 21;
  job.base.weight_throughput = 200.0;
  job.base.delay_model.clock_ps = 300.0;
  job.restarts = 5;
  // Stateless reference oracle: every restart may call its own copy.
  job.base.throughput_fn = wp::reference::fresh_howard_fn(graph);

  AnnealResult sequential;
  for (int i = 0; i < job.restarts; ++i) {
    AnnealOptions options = job.base;
    options.seed = job.base.seed + static_cast<std::uint64_t>(i);
    AnnealResult restart = anneal(inst, options);
    if (i == 0 || restart.cost < sequential.cost)
      sequential = std::move(restart);
  }

  for (const std::size_t workers : {1u, 2u, 4u}) {
    wp::ThreadPool pool(workers);
    job.pool = &pool;
    const AnnealResult parallel = anneal_parallel(inst, job);
    EXPECT_TRUE(identical_results(sequential, parallel))
        << "diverged with " << workers << " workers: sequential cost "
        << sequential.cost << " seed " << sequential.seed
        << " vs parallel cost " << parallel.cost << " seed "
        << parallel.seed;
  }
}

TEST(AnnealParallel, AreaDrivenDeterminismAndSeedBookkeeping) {
  const Instance inst = synthetic_instance(12, 5);
  ParallelAnnealOptions job;
  job.base.iterations = 2000;
  job.base.seed = 100;
  job.restarts = 4;
  wp::ThreadPool pool(4);
  job.pool = &pool;
  const AnnealResult a = anneal_parallel(inst, job);
  const AnnealResult b = anneal_parallel(inst, job);
  EXPECT_TRUE(identical_results(a, b));
  EXPECT_GE(a.seed, 100u);
  EXPECT_LT(a.seed, 104u);
}

TEST(Annealer, AreaDrivenFlatPassMatchesNaiveEngineAndReferenceCost) {
  // An area-driven run prices candidates through NetGeometry's flat pass.
  // Both packers must end on the same bits, and the reported terms of the
  // best placement must equal a reference recomputation, which measures
  // wirelength with total_wirelength().
  const Instance inst =
      generated_instance(wp::gen::TopologyFamily::kMesh, 64, 2);
  AnnealOptions options;
  options.iterations = 1500;
  options.seed = 17;
  options.weight_throughput = 0.0;
  options.pack_engine = PackEngine::kNaive;
  const AnnealResult naive = anneal(inst, options);
  options.pack_engine = PackEngine::kMovePacker;
  const AnnealResult move = anneal(inst, options);
  EXPECT_EQ(naive.cost, move.cost);
  EXPECT_EQ(naive.area, move.area);
  EXPECT_EQ(naive.wirelength, move.wirelength);
  EXPECT_TRUE(identical_results(naive, move));
  EXPECT_EQ(move.area, move.placement.area());
  EXPECT_EQ(move.wirelength, total_wirelength(inst, move.placement));
  EXPECT_EQ(move.throughput, 1.0);
  EXPECT_EQ(move.cost,
            options.weight_area * move.area +
                options.weight_wirelength * move.wirelength +
                options.weight_throughput * (1.0 - move.throughput));
}

TEST(Instances, SyntheticIsDeterministic) {
  const Instance a = synthetic_instance(10, 3);
  const Instance b = synthetic_instance(10, 3);
  EXPECT_EQ(serialize_instance(a), serialize_instance(b));
  EXPECT_EQ(a.blocks.size(), 10u);
  EXPECT_GE(a.nets.size(), 10u);  // at least the ring
}

}  // namespace
}  // namespace wp::fplan
