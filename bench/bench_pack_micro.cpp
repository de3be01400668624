// Micro-benchmarks for the packing primitives under the annealer's hot
// loop: the MaxFenwick pass (a zero-fill reset, then plain max walks),
// one-shot pack_fast() against the naive O(n²) pack(), and the per-move
// cost of rejection-heavy move chains (uniform global swaps and local tail
// swaps) under the MovePacker against the naive reference re-pack.
//
// Self-contained (no google-benchmark): deterministic seeded workloads,
// checksums printed so the measured loops cannot be optimised away (and
// compared: the fast paths must match the naive reference bit for bit),
// and a JSON artifact (default BENCH_pack_micro.json, --json PATH) that
// rides the tools/bench_diff Release-CI gate. The gate compares only
// `pack_fast_speedup`, pack_fast() against naive pack() (best of kReps
// alternating runs per side), and fails it when it lost more than 25%.
// The move-chain ratios are reported under `*_naive_over_packer`, not
// gated: on a 4-vCPU shared host, contention stretches lasting 30 s and
// more slowed the MovePacker chain 1.6x and the naive re-pack 1.14x, so
// those ratios spread 47-76% across six runs, and no in-process repeat
// reaches outside such a stretch. The `*_total_ms` and per-op `*_ns`
// fields are reported, never gated.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cli/arg_parser.hpp"
#include "floorplan/instances.hpp"
#include "floorplan/pack_engine.hpp"
#include "floorplan/sequence_pair.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using wp::fplan::AppliedMove;
using wp::fplan::Instance;
using wp::fplan::MovePacker;
using wp::fplan::SequencePair;
using wp::fplan::SpMove;
using wp::fplan::detail::MaxFenwick;

constexpr std::size_t kBlocks = 256;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One pack_fast-shaped Fenwick pass: n interleaved prefix_max/update
/// pairs, the exact access pattern of the O(n log n) packer.
double fenwick_pass(MaxFenwick& fw, const std::vector<std::size_t>& keys,
                    const std::vector<double>& vals) {
  fw.reset(kBlocks);
  double checksum = 0;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    const double coord = fw.prefix_max(keys[i] + 1);
    checksum += coord;
    fw.update(keys[i], coord + vals[i]);
  }
  return checksum;
}

/// A move source: draws (and applies to `sp`) the next candidate move.
using MoveSource = AppliedMove (*)(SequencePair& sp, wp::Rng& rng);

AppliedMove uniform_move(SequencePair& sp, wp::Rng& rng) {
  return random_move(sp, rng);
}

/// Rejection-heavy *local* moves — Γ− swaps confined to the last few
/// positions, the shape of late-anneal refinement.
AppliedMove local_move(SequencePair& sp, wp::Rng& rng) {
  constexpr std::size_t kSpan = 12;
  const std::size_t i = kBlocks - 1 - rng.below(kSpan);
  std::size_t j = kBlocks - 1 - rng.below(kSpan);
  if (j == i) j = kBlocks - 1 - ((kBlocks - 1 - j + 1) % kSpan);
  const AppliedMove move{SpMove::kSwapNegative, i, j};
  apply_move(sp, move);
  return move;
}

/// Reps per timed loop; each `*_speedup` divides the best of each side.
constexpr int kReps = 5;

struct TimedRun {
  double total_ms = 0;
  double checksum = 0;
};

/// Keeps the faster of `best` and `run`; rep 0 always replaces `best`.
void keep_fastest(TimedRun& best, const TimedRun& run, int rep) {
  if (rep == 0 || run.total_ms < best.total_ms) best = run;
}

/// One-shot packs of every pair, naive pack() or pack_fast().
TimedRun run_packs(const Instance& inst, const std::vector<SequencePair>& pairs,
                   bool naive) {
  TimedRun run;
  const auto start = std::chrono::steady_clock::now();
  for (const SequencePair& sp : pairs)
    run.checksum += naive ? wp::fplan::pack(inst, sp).area()
                          : wp::fplan::pack_fast(inst, sp).area();
  run.total_ms = ms_since(start);
  return run;
}

/// The annealing cold tail: 1 move in 16 accepted, the rest undone. The
/// naive reference re-packs the caller's pair from scratch per move; the
/// MovePacker applies/commits/reverts. Same seed, same move stream, so the
/// area checksums must agree bitwise.
TimedRun run_chain(const Instance& inst, MoveSource next, int moves,
                   std::uint64_t seed, bool naive) {
  wp::Rng rng(seed);
  SequencePair sp = SequencePair::random(kBlocks, rng);
  MovePacker packer(inst, sp);
  TimedRun run;
  const auto start = std::chrono::steady_clock::now();
  for (int m = 0; m < moves; ++m) {
    const AppliedMove move = next(sp, rng);
    run.checksum +=
        naive ? wp::fplan::pack(inst, sp).area() : packer.apply(move).area();
    if (m % 16 != 15) {
      undo_move(sp, move);
      if (!naive) packer.revert();
    } else if (!naive) {
      packer.commit();
    }
  }
  run.total_ms = ms_since(start);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wp;

  cli::ArgParser parser("bench_pack_micro",
                        "Packing-primitive micro-benchmarks.");
  parser.option("--json", "PATH", "BENCH_pack_micro.json",
                "machine-readable timing artifact");
  parser.parse_or_exit(argc, argv);
  const std::string json_path = parser.get("--json");

  Rng rng(17);
  // Shared deterministic workload: a random key permutation plus positive
  // block extents, the shape pack_fast feeds the tree.
  std::vector<std::size_t> keys(kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) keys[i] = i;
  for (std::size_t i = kBlocks - 1; i > 0; --i)
    std::swap(keys[i], keys[rng.below(i + 1)]);
  std::vector<double> vals(kBlocks);
  for (double& v : vals) v = 1.0 + static_cast<double>(rng.below(1000));

  TextTable table({"primitive", "workload", "total ms", "per op"});
  table.add_section("Packing primitives at n = " + std::to_string(kBlocks));
  table.add_separator();

  // ---------------------------------------------------- plain Fenwick
  const int fenwick_reps = 20000;
  MaxFenwick fw;
  double checksum = 0;
  const auto fenwick_start = std::chrono::steady_clock::now();
  for (int r = 0; r < fenwick_reps; ++r) checksum += fenwick_pass(fw, keys, vals);
  const double fenwick_total_ms = ms_since(fenwick_start);
  const double fenwick_op_ns = fenwick_total_ms * 1e6 /
                               (fenwick_reps * kBlocks * 2.0);
  table.add_row({"MaxFenwick", "update+prefix_max pass x" +
                                   std::to_string(fenwick_reps),
                 fmt_fixed(fenwick_total_ms, 1),
                 fmt_fixed(fenwick_op_ns, 1) + " ns/op"});

  // ------------- one-shot pack vs naive, and move chains at n = 256
  // Each ratio's two sides alternate, best of kReps: one-shot timings of
  // these loops spread wider than the gate's 25%.
  const Instance inst = wp::fplan::synthetic_instance(kBlocks, 11);
  const int pack_reps = 400;
  std::vector<SequencePair> pairs;
  for (int r = 0; r < pack_reps; ++r)
    pairs.push_back(SequencePair::random(kBlocks, rng));
  const int chain_moves = 4000;
  TimedRun pack_naive, pack_fast, chain_naive, chain_packer, local_naive,
      local_packer;
  for (int rep = 0; rep < kReps; ++rep) {
    keep_fastest(pack_naive, run_packs(inst, pairs, /*naive=*/true), rep);
    keep_fastest(pack_fast, run_packs(inst, pairs, /*naive=*/false), rep);
    for (const bool naive : {true, false})
      keep_fastest(naive ? chain_naive : chain_packer,
                   run_chain(inst, uniform_move, chain_moves, 31, naive), rep);
    for (const bool naive : {true, false})
      keep_fastest(naive ? local_naive : local_packer,
                   run_chain(inst, local_move, chain_moves, 37, naive), rep);
  }
  if (pack_naive.checksum != pack_fast.checksum) {
    std::cerr << "PACK_FAST DIVERGENCE from naive pack()\n";
    return 1;
  }
  if (chain_naive.checksum != chain_packer.checksum ||
      local_naive.checksum != local_packer.checksum) {
    std::cerr << "MOVEPACKER DIVERGENCE from naive pack() in a move chain\n";
    return 1;
  }
  const auto pack_row = [&](const std::string& engine, const TimedRun& run) {
    table.add_row({engine, "one-shot x" + std::to_string(pack_reps),
                   fmt_fixed(run.total_ms, 1),
                   fmt_fixed(run.total_ms * 1000.0 / pack_reps, 2) +
                       " us/pack"});
  };
  pack_row("pack()", pack_naive);
  pack_row("pack_fast()", pack_fast);
  const auto chain_row = [&](const std::string& engine,
                             const std::string& workload,
                             const TimedRun& run) {
    table.add_row({engine, workload + " x" + std::to_string(chain_moves),
                   fmt_fixed(run.total_ms, 1),
                   fmt_fixed(run.total_ms * 1000.0 / chain_moves, 2) +
                       " us/move"});
  };
  chain_row("pack()", "1-in-16 accept chain", chain_naive);
  chain_row("MovePacker", "1-in-16 accept chain", chain_packer);
  chain_row("pack()", "local 1-in-16 chain", local_naive);
  chain_row("MovePacker", "local 1-in-16 chain", local_packer);
  table.print(std::cout);
  std::cout << "checksums: " << checksum << " " << pack_fast.checksum << " "
            << chain_packer.checksum << " " << local_packer.checksum << "\n";

  // ---------------------------------------------------- JSON artifact
  std::ofstream file(json_path);
  if (!file) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  json::JsonWriter json(file);
  json.begin_object();
  json.field("schema", "wirepipe-bench-pack-micro/3");
  json.field("blocks", kBlocks);
  json.field("fenwick_pass_total_ms", fenwick_total_ms)
      .field("fenwick_op_ns", fenwick_op_ns)
      .field("pack_naive_total_ms", pack_naive.total_ms)
      .field("pack_fast_total_ms", pack_fast.total_ms)
      .field("pack_fast_speedup", pack_naive.total_ms / pack_fast.total_ms)
      .field("chain_naive_total_ms", chain_naive.total_ms)
      .field("chain_packer_total_ms", chain_packer.total_ms)
      .field("chain_naive_over_packer",
             chain_naive.total_ms / chain_packer.total_ms)
      .field("local_chain_naive_total_ms", local_naive.total_ms)
      .field("local_chain_packer_total_ms", local_packer.total_ms)
      .field("local_chain_naive_over_packer",
             local_naive.total_ms / local_packer.total_ms);
  json.end_object();
  file << "\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
