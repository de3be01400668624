// E8 (extension) — the complete wire-pipelining methodology as a flow:
// floorplan the case study (and synthetic SoCs), derive per-connection
// relay-station demand from wire lengths, and compare the resulting system
// throughput for (a) area/wirelength-driven and (b) throughput-driven
// annealing, under WP1 and WP2 execution of the real programs.
//
// The multi-seed restarts run on the shared thread pool (anneal_parallel),
// each with a private incremental throughput engine. Head-to-head
// sections time the hot-loop machinery: packing (naive O(n²) pack() vs
// pack_fast() vs the MovePacker's per-move apply at mid-anneal and
// cold-tail accept rates), whole anneals under both engines plus the
// 128-vs-256-block scaling study, and the throughput oracles (a fresh
// certified Howard solve per demand, the reference, vs the incremental
// ThroughputEngine), asserting bit-identical results as they run.
//
// Machine-readable trajectory: every run writes the per-stage timings
// (pack ms, throughput-eval ms, whole-anneal ms, engine hit rates) as
// JSON — default BENCH_floorplan.json, override with --json PATH — which
// Release CI uploads as a per-commit artifact.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "cli/arg_parser.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/instances.hpp"
#include "floorplan/pack_engine.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/throughput_engine.hpp"
#include "proc/experiment.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using wp::fplan::AnnealOptions;
using wp::fplan::AnnealResult;
using wp::fplan::AppliedMove;
using wp::fplan::Instance;
using wp::fplan::MovePacker;
using wp::fplan::PackEngine;
using wp::fplan::ParallelAnnealOptions;
using wp::fplan::Placement;
using wp::fplan::SequencePair;
using wp::fplan::WireDelayModel;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Rows collected for the JSON artifact.
struct FloorplanRow {
  std::string objective;
  double area = 0, wirelength = 0, static_th = 0, th_wp1 = 0, th_wp2 = 0;
};
struct PackingRow {
  std::size_t blocks = 0;
  double naive_ms = 0, fast_ms = 0, move_us = 0, tail_move_us = 0;
};
struct AnnealEngineRow {
  std::size_t blocks = 0;
  std::string engine;
  double anneal_ms = 0, pack_ms = 0;
};
struct ScaleRow {
  std::size_t blocks = 0;
  double anneal_ms = 0, pack_ms = 0;
};
struct OracleRow {
  std::size_t blocks = 0;
  std::string oracle;
  double anneal_ms = 0, throughput_ms = 0;
  int evals = 0;
  std::uint64_t incremental = 0, fallbacks = 0;
};

/// Times the three packing paths on one instance size. Equality of the
/// paths is asserted as the timing loops run — the bench doubles as a
/// smoke differential check (the exhaustive one is test_pack_equivalence).
PackingRow bench_packing_engines(wp::TextTable& table, std::size_t blocks) {
  const Instance inst = wp::fplan::synthetic_instance(blocks, 11);
  wp::Rng rng(1);

  const int reps = 200;
  std::vector<SequencePair> pairs;
  for (int r = 0; r < reps; ++r)
    pairs.push_back(SequencePair::random(blocks, rng));

  const auto naive_start = std::chrono::steady_clock::now();
  double checksum_naive = 0;
  for (const auto& sp : pairs) checksum_naive += pack(inst, sp).area();
  const double naive_ms = ms_since(naive_start) / reps;

  const auto fast_start = std::chrono::steady_clock::now();
  double checksum_fast = 0;
  for (const auto& sp : pairs) checksum_fast += pack_fast(inst, sp).area();
  const double fast_ms = ms_since(fast_start) / reps;
  if (checksum_naive != checksum_fast) {
    std::cerr << "PACKING ENGINE DIVERGENCE at n=" << blocks << "\n";
    std::exit(1);
  }

  // The MovePacker on annealer-shaped move loops: a seeded move stream
  // with one move in `accept_mod` accepted, the rest undone. The
  // half-reject loop is the classic mid-anneal regime, the 1-in-16 loop
  // the cold tail. An untimed naive replay of the same stream (re-packing
  // the pair from scratch per move) must produce the same area checksum.
  const int moves = 2000;
  const auto run_moves = [&](std::uint64_t seed, int accept_mod,
                             bool naive, double* checksum) {
    wp::Rng loop_rng(seed);
    SequencePair sp = SequencePair::random(blocks, loop_rng);
    MovePacker packer(inst, sp);
    const auto start = std::chrono::steady_clock::now();
    for (int m = 0; m < moves; ++m) {
      const AppliedMove move = random_move(sp, loop_rng);
      *checksum += naive ? pack(inst, sp).area() : packer.apply(move).area();
      if (m % accept_mod != accept_mod - 1) {
        undo_move(sp, move);
        if (!naive) packer.revert();
      } else if (!naive) {
        packer.commit();
      }
    }
    return ms_since(start) * 1000.0 / moves;
  };
  const auto timed_moves = [&](std::uint64_t seed, int accept_mod) {
    double checksum = 0, reference = 0;
    const double us = run_moves(seed, accept_mod, false, &checksum);
    run_moves(seed, accept_mod, true, &reference);
    if (checksum != reference) {
      std::cerr << "MOVEPACKER DIVERGENCE at n=" << blocks << "\n";
      std::exit(1);
    }
    return us;
  };
  const double move_us = timed_moves(2, 2);
  const double tail_move_us = timed_moves(3, 16);

  table.add_row({std::to_string(blocks), wp::fmt_fixed(naive_ms, 3),
                 wp::fmt_fixed(fast_ms, 3),
                 wp::fmt_fixed(naive_ms / fast_ms, 1),
                 wp::fmt_fixed(move_us, 1), wp::fmt_fixed(tail_move_us, 1),
                 wp::fmt_fixed(naive_ms * 1000.0 / move_us, 1)});
  return {blocks, naive_ms, fast_ms, move_us, tail_move_us};
}

/// The throughput-oracle reference: a stateless ThroughputFn that applies
/// each demand to a fresh copy of `base` (labels not mentioned keep their
/// base counts) and solves the copy with the certified
/// min_cycle_ratio_howard(). The label index is built once, read only.
wp::fplan::ThroughputFn fresh_howard_fn(const wp::graph::Digraph& base) {
  std::unordered_map<std::string, std::vector<wp::graph::EdgeId>> by_label;
  for (wp::graph::EdgeId e = 0; e < base.num_edges(); ++e)
    by_label[base.edge(e).label].push_back(e);
  return [base, by_label = std::move(by_label)](
             const std::vector<std::pair<std::string, int>>& demand) {
    wp::graph::Digraph g = base;
    for (const auto& [label, rs] : demand) {
      const auto it = by_label.find(label);
      if (it == by_label.end()) continue;
      for (const wp::graph::EdgeId e : it->second)
        g.edge(e).relay_stations = rs;
    }
    return wp::graph::min_cycle_ratio_howard(g).ratio;
  };
}

/// One node per block, one labelled edge per net: the static-analysis
/// graph of a synthetic instance.
wp::graph::Digraph graph_of_instance(const Instance& inst) {
  wp::graph::Digraph g;
  for (const auto& b : inst.blocks) g.add_node(b.name);
  for (const auto& n : inst.nets)
    g.add_edge(n.src_block, n.dst_block, n.connection);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wp;

  cli::ArgParser parser("bench_floorplan_flow",
                        "Floorplan-driven wire-pipelining flow bench.");
  parser.option("--json", "PATH", "BENCH_floorplan.json",
                "machine-readable timing artifact");
  parser.parse_or_exit(argc, argv);
  const std::string json_path = parser.get("--json");

  const Instance cpu = fplan::cpu_instance();
  const graph::Digraph cpu_graph = proc::make_cpu_graph();
  WireDelayModel delay;
  // 350 ps clock, 150 ps/mm wires: 2.33 mm reachable per cycle. Adjacent CU/IC
  // stay un-pipelined; a careless placement forces relay stations onto the
  // fetch loop — the regime where the floorplan objective matters.
  delay.clock_ps = 350.0;

  std::vector<FloorplanRow> floorplan_rows;
  std::vector<PackingRow> packing_rows;
  std::vector<AnnealEngineRow> anneal_rows;
  std::vector<OracleRow> oracle_rows;

  TextTable table({"objective", "area (mm^2)", "wirelength (mm)",
                   "static Th", "sim Th WP1", "sim Th WP2"});
  table.add_section("Floorplan-driven wire pipelining of the case-study "
                    "CPU (clock " +
                    fmt_fixed(delay.clock_ps, 0) + " ps, " +
                    fmt_fixed(delay.ps_per_mm, 0) + " ps/mm wires, " +
                    std::to_string(ThreadPool::shared().size()) +
                    " workers)");
  table.add_separator();

  const proc::ProgramSpec program = proc::extraction_sort_program(16, 1);
  proc::ExperimentOptions options;
  options.check_equivalence = false;

  for (const bool throughput_driven : {false, true}) {
    // Best of five annealing seeds (11..15) under each objective, fanned
    // out over the pool; selection is deterministic best-of. Each restart
    // owns a private incremental throughput engine.
    ParallelAnnealOptions parallel;
    parallel.base.iterations = 20000;
    parallel.base.seed = 11;
    parallel.base.delay_model = delay;
    parallel.restarts = 5;
    if (throughput_driven) {
      parallel.base.weight_throughput = 500.0;
      parallel.engine_factory = [&cpu_graph]() {
        return std::make_unique<graph::ThroughputEngine>(cpu_graph);
      };
    }
    const AnnealResult result = fplan::anneal_parallel(cpu, parallel);
    const auto demand = rs_demand(cpu, result.placement, delay);

    proc::RsConfig config{"floorplan", {}};
    for (const auto& [label, rs] : demand) config.rs[label] = rs;
    const proc::ExperimentRow row =
        run_experiment(program, {}, config, options);

    FloorplanRow out;
    out.objective = throughput_driven ? "area+WL+throughput" : "area+WL";
    out.area = result.area;
    out.wirelength = result.wirelength;
    out.static_th = fresh_howard_fn(cpu_graph)(demand);
    out.th_wp1 = row.th_wp1;
    out.th_wp2 = row.th_wp2;
    floorplan_rows.push_back(out);
    table.add_row({out.objective, fmt_fixed(out.area, 1),
                   fmt_fixed(out.wirelength, 1),
                   fmt_fixed(out.static_th, 3), fmt_fixed(out.th_wp1, 3),
                   fmt_fixed(out.th_wp2, 3)});
  }
  table.print(std::cout);
  std::cout << "Throughput-aware floorplanning keeps the critical loops "
               "short (fewer\nrelay stations where they hurt), trading a "
               "little area/wirelength for\nsystem throughput — the full "
               "methodology the paper's title promises.\n\n";

  // Scaling study on synthetic SoCs.
  TextTable synth({"instance", "blocks", "nets", "area-driven static Th",
                   "throughput-driven static Th"});
  synth.add_section("Synthetic SoC instances (GSRC-scale)");
  synth.add_separator();
  for (const std::size_t blocks : {10u, 20u, 33u}) {
    const Instance inst = fplan::synthetic_instance(blocks, 7);
    const graph::Digraph g = graph_of_instance(inst);
    double th[2] = {0, 0};
    for (const bool driven : {false, true}) {
      // Best of three seeds (3..5), judged by the achieved static
      // throughput; the seeds run concurrently, each with its own engine.
      const std::uint64_t base_seed = 3;
      double seed_th[3] = {0, 0, 0};
      ThreadPool::shared().parallel_for(0, 3, [&](std::size_t i) {
        AnnealOptions anneal_options;
        anneal_options.iterations = 6000;
        anneal_options.seed = base_seed + i;
        anneal_options.delay_model = delay;
        graph::ThroughputEngine engine(g);
        if (driven) {
          anneal_options.weight_throughput = 100.0;
          anneal_options.throughput_engine = &engine;
        }
        const AnnealResult result = fplan::anneal(inst, anneal_options);
        seed_th[i] = engine.throughput(rs_demand(inst, result.placement,
                                                 delay));
      });
      for (const double th_i : seed_th)
        th[driven ? 1 : 0] = std::max(th[driven ? 1 : 0], th_i);
    }
    synth.add_row({inst.name, std::to_string(inst.blocks.size()),
                   std::to_string(inst.nets.size()), fmt_fixed(th[0], 3),
                   fmt_fixed(th[1], 3)});
  }
  synth.print(std::cout);

  // Packing head-to-head: the O(n²) reference vs the O(n log n)
  // weighted-LCS evaluation vs the MovePacker's per-move apply, at 50%
  // and 1-in-16 accept rates.
  TextTable packt({"blocks", "naive ms/pack", "fast ms/pack", "fast speedup",
                   "move us", "tail move us", "move speedup"});
  packt.add_section("Packing (naive O(n^2) vs fast O(n log n) vs "
                    "MovePacker per move)");
  packt.add_separator();
  for (const std::size_t blocks : {33u, 100u, 150u, 256u})
    packing_rows.push_back(bench_packing_engines(packt, blocks));
  packt.print(std::cout);

  // Whole annealing runs under each engine: the end-to-end effect on the
  // path both anneal_parallel and the ensemble runner sit on.
  TextTable annealt({"blocks", "engine", "anneal ms", "pack ms", "speedup"});
  annealt.add_section("Area-driven anneal, 3000 iterations per run");
  annealt.add_separator();
  for (const std::size_t blocks : {33u, 100u, 150u}) {
    const Instance inst = fplan::synthetic_instance(blocks, 11);
    double engine_ms[2] = {0, 0};
    AnnealResult results[2];
    for (const PackEngine engine :
         {PackEngine::kNaive, PackEngine::kMovePacker}) {
      AnnealOptions anneal_options;
      anneal_options.iterations = 3000;
      anneal_options.seed = 4;
      anneal_options.pack_engine = engine;
      const auto start = std::chrono::steady_clock::now();
      const auto idx = static_cast<std::size_t>(engine);
      results[idx] = fplan::anneal(inst, anneal_options);
      engine_ms[idx] = ms_since(start);
      anneal_rows.push_back({blocks, fplan::pack_engine_name(engine),
                             engine_ms[idx], results[idx].pack_ms});
      annealt.add_row({std::to_string(blocks),
                       fplan::pack_engine_name(engine),
                       fmt_fixed(engine_ms[idx], 1),
                       fmt_fixed(results[idx].pack_ms, 1),
                       idx == 0 ? "1.0"
                                : fmt_fixed(engine_ms[0] / engine_ms[idx],
                                            1)});
    }
    if (results[0].cost != results[1].cost ||
        results[0].placement.x != results[1].placement.x) {
      std::cerr << "ANNEALER ENGINE DIVERGENCE at n=" << blocks << "\n";
      return 1;
    }
  }
  annealt.print(std::cout);

  // Scale study: production-shaped runs (20000 iterations — the
  // AnnealOptions default) at 128 and 256 blocks: what doubling n costs
  // the production engine. The instances are the bounded-degree family
  // (expected degree ~10, the NoC regime the generator families produce)
  // rather than the quadratic-density default, where the wirelength scan
  // would drown the packing signal. Each size is best-of-3: single-shot
  // anneal wall-clocks jitter well above the ~10% this comparison is
  // about.
  std::vector<ScaleRow> scale_rows;
  TextTable scalet({"blocks", "anneal ms", "pack ms"});
  scalet.add_section(
      "Scaling: area-driven anneal, 20000 iterations, bounded-degree nets");
  scalet.add_separator();
  for (const std::size_t blocks : {128u, 256u}) {
    const Instance inst = fplan::synthetic_instance(
        blocks, 11, 0.5, 3.0, 8.0 / static_cast<double>(blocks));
    AnnealOptions anneal_options;
    anneal_options.seed = 4;
    AnnealResult result;
    double anneal_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      result = fplan::anneal(inst, anneal_options);
      const double rep_ms = ms_since(start);
      if (rep == 0 || rep_ms < anneal_ms) anneal_ms = rep_ms;
    }
    scale_rows.push_back({blocks, anneal_ms, result.pack_ms});
    scalet.add_row({std::to_string(blocks), fmt_fixed(anneal_ms, 1),
                    fmt_fixed(result.pack_ms, 1)});
  }
  scalet.print(std::cout);
  const double ratio_256_over_128 =
      scale_rows[1].anneal_ms / scale_rows[0].anneal_ms;
  std::cout << "256 / 128 anneal ratio: " << fmt_fixed(ratio_256_over_128, 2)
            << "\n\n";

  // Throughput-oracle head-to-head: the fresh-Howard reference (configured
  // graph copy + cold certified solve per demand) vs the incremental engine
  // (in-place deltas + lazily repaired certificate), on throughput-driven
  // anneals of the synthetic SoCs. The trajectories must be bit-identical;
  // the win is the throughput-eval share of the anneal.
  TextTable oraclet({"blocks", "oracle", "anneal ms", "th-eval ms",
                     "th share", "th-eval speedup", "incr", "cold"});
  oraclet.add_section(
      "Throughput oracles (fresh-Howard reference vs incremental engine), "
      "throughput-driven anneal, 4000 iterations");
  oraclet.add_separator();
  for (const std::size_t blocks : {33u, 100u, 150u}) {
    const Instance inst = fplan::synthetic_instance(blocks, 7);
    const graph::Digraph g = graph_of_instance(inst);
    AnnealResult results[2];
    for (const bool use_engine : {false, true}) {
      AnnealOptions anneal_options;
      anneal_options.iterations = 4000;
      anneal_options.seed = 9;
      anneal_options.delay_model = delay;
      anneal_options.weight_throughput = 100.0;
      graph::ThroughputEngine engine(g);
      if (use_engine)
        anneal_options.throughput_engine = &engine;
      else
        anneal_options.throughput_fn = fresh_howard_fn(g);
      const auto start = std::chrono::steady_clock::now();
      const std::size_t idx = use_engine ? 1 : 0;
      results[idx] = fplan::anneal(inst, anneal_options);
      const double anneal_ms = ms_since(start);

      OracleRow row;
      row.blocks = blocks;
      row.oracle = use_engine ? "engine" : "fresh-howard";
      row.anneal_ms = anneal_ms;
      row.throughput_ms = results[idx].throughput_ms;
      row.evals = results[idx].throughput_evals;
      row.incremental = results[idx].engine_incremental;
      row.fallbacks = results[idx].engine_fallbacks;
      oracle_rows.push_back(row);
      oraclet.add_row(
          {std::to_string(blocks), row.oracle, fmt_fixed(anneal_ms, 1),
           fmt_fixed(row.throughput_ms, 1),
           fmt_percent(row.throughput_ms / anneal_ms),
           use_engine ? fmt_fixed(oracle_rows[oracle_rows.size() - 2]
                                          .throughput_ms /
                                      row.throughput_ms,
                                  1)
                      : std::string("1.0"),
           use_engine ? std::to_string(row.incremental) : "-",
           use_engine ? std::to_string(row.fallbacks) : "-"});
    }
    if (results[0].cost != results[1].cost ||
        results[0].placement.x != results[1].placement.x ||
        results[0].placement.y != results[1].placement.y ||
        results[0].throughput != results[1].throughput ||
        results[0].accepted_moves != results[1].accepted_moves ||
        results[0].throughput_evals != results[1].throughput_evals ||
        results[0].throughput_cache_hits !=
            results[1].throughput_cache_hits) {
      std::cerr << "THROUGHPUT ORACLE DIVERGENCE at n=" << blocks << "\n";
      return 1;
    }
  }
  oraclet.print(std::cout);
  std::cout << "Both oracles return bit-identical ratios (asserted above); "
               "the engine turns\nthe per-eval cold O(V*E) certification "
               "into an O(E) certificate repair.\n\n";

  // ---------------------------------------------------- JSON artifact
  {
    std::ofstream file(json_path);
    if (!file) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    wp::bench::JsonWriter json(file);
    json.begin_object();
    json.field("schema", "wirepipe-bench-floorplan/1");
    json.field("workers", ThreadPool::shared().size());
    json.key("floorplan").begin_array();
    for (const auto& r : floorplan_rows) {
      json.begin_object();
      json.field("objective", r.objective)
          .field("area_mm2", r.area)
          .field("wirelength_mm", r.wirelength)
          .field("static_th", r.static_th)
          .field("th_wp1", r.th_wp1)
          .field("th_wp2", r.th_wp2);
      json.end_object();
    }
    json.end_array();
    json.key("packing").begin_array();
    for (const auto& r : packing_rows) {
      json.begin_object();
      json.field("blocks", r.blocks)
          .field("naive_ms_per_pack", r.naive_ms)
          .field("fast_ms_per_pack", r.fast_ms)
          .field("fast_speedup", r.naive_ms / r.fast_ms)
          .field("move_us_per_move", r.move_us)
          .field("move_speedup", r.naive_ms * 1000.0 / r.move_us)
          .field("tail_move_us_per_move", r.tail_move_us);
      json.end_object();
    }
    json.end_array();
    json.key("anneal").begin_array();
    for (const auto& r : anneal_rows) {
      json.begin_object();
      json.field("blocks", r.blocks)
          .field("pack_engine", r.engine)
          .field("anneal_ms", r.anneal_ms)
          .field("pack_ms", r.pack_ms);
      json.end_object();
    }
    json.end_array();
    json.key("scale").begin_array();
    for (const auto& r : scale_rows) {
      json.begin_object();
      json.field("blocks", r.blocks)
          .field("anneal_ms", r.anneal_ms)
          .field("pack_ms", r.pack_ms);
      json.end_object();
    }
    json.end_array();
    // A ratio of two same-process wall-clock measurements: informational
    // (no ms/speedup token), outside the bench_diff gate.
    json.field("anneal_256_over_128_ratio", ratio_256_over_128);
    json.key("throughput_oracle").begin_array();
    for (const auto& r : oracle_rows) {
      json.begin_object();
      json.field("blocks", r.blocks)
          .field("oracle", r.oracle)
          .field("anneal_ms", r.anneal_ms)
          .field("throughput_eval_ms", r.throughput_ms)
          .field("throughput_share", r.throughput_ms / r.anneal_ms)
          .field("throughput_evals", r.evals)
          .field("engine_incremental", r.incremental)
          .field("engine_fallbacks", r.fallbacks);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    file << "\n";
  }
  std::cout << "wrote " << json_path
            << " (per-stage ms + engine hit rates)\n";
  return 0;
}
