// E8 (extension) — the complete wire-pipelining methodology as a flow:
// floorplan the case study (and synthetic SoCs), derive per-connection
// relay-station demand from wire lengths, and compare the resulting system
// throughput for (a) area/wirelength-driven and (b) throughput-driven
// annealing, under WP1 and WP2 execution of the real programs.
//
// The multi-seed restarts fan out with ThreadPool::parallel_for, each
// with a private incremental throughput engine. Head-to-head
// sections time whole anneals under both pack engines (naive pack(), the
// reference, vs the MovePacker) plus the 128-vs-256-block scaling study,
// and the throughput oracles (a fresh certified Howard solve per demand,
// the reference, vs the incremental ThroughputEngine), asserting
// bit-identical results as they run. It exits non-zero when a claim
// fails: the engines diverge, the throughput-aware CPU floorplan's static
// Th falls below the area-only one, or an anneal reports a throughput
// other than a fresh solve of its best placement's demand. The packing
// primitives on their own are bench_pack_micro's.
//
// Machine-readable trajectory: every run writes the per-stage timings
// (pack ms, throughput-eval ms, whole-anneal ms, engine hit rates) as
// JSON — default BENCH_floorplan.json, override with --json PATH. The
// tools/bench_diff gate compares only its same-run ratios against the
// in-tree references: anneal_speedup (naive ÷ MovePacker anneal, per
// size) and throughput_eval_speedup (fresh-Howard ÷ engine eval time,
// per size). Everything else in it is reported, never gated.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "cli/arg_parser.hpp"
#include "floorplan/annealer.hpp"
#include "floorplan/instances.hpp"
#include "floorplan/pack_engine.hpp"
#include "graph/throughput_engine.hpp"
#include "proc/experiment.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

#include "../tests/testkit/fresh_howard.hpp"

namespace {

using wp::fplan::AnnealOptions;
using wp::fplan::AnnealResult;
using wp::fplan::Instance;
using wp::fplan::PackEngine;
using wp::fplan::WireDelayModel;
using wp::reference::fresh_howard_fn;

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
struct AnnealEngineRow {
  std::size_t blocks = 0;
  std::string engine;
  double anneal_ms = 0, pack_ms = 0;
  double speedup = 0;  ///< naive ÷ this row; 0 on the naive row itself
};
struct ScaleRow {
  std::size_t blocks = 0;
  double anneal_ms = 0, pack_ms = 0;
};
struct OracleRow {
  std::size_t blocks = 0;
  std::string oracle;
  double anneal_ms = 0, throughput_ms = 0;
  double speedup = 0;  ///< replay_eval_speedup; 0 on the reference row
  int evals = 0;
  std::uint64_t incremental = 0, fallbacks = 0;
};

/// The queries one throughput-driven anneal put to its oracle, in order:
/// the connection labels once, then the counts of each query.
struct QueryStream {
  std::vector<std::string> labels;
  std::vector<std::vector<int>> counts;
};

/// `oracle`, recording every query it answers into `stream`.
wp::fplan::ThroughputFn recording(wp::fplan::ThroughputFn oracle,
                                  QueryStream& stream) {
  return [oracle = std::move(oracle), &stream](
             const std::vector<std::pair<std::string, int>>& demand) {
    if (stream.labels.empty())
      for (const auto& entry : demand) stream.labels.push_back(entry.first);
    std::vector<int>& counts = stream.counts.emplace_back();
    for (const auto& entry : demand) counts.push_back(entry.second);
    return oracle(demand);
  };
}

/// Replays `stream` through a fresh engine on the annealer's path — the
/// first query whole, then each query as a delta of the connections whose
/// count moved — and through the fresh-Howard reference, alternating query
/// by query so a slow stretch of the host lands on both sides of the
/// ratio alike. The moved lists are built before the timing starts.
/// Returns the reference's total query time over the engine's; exits on a
/// query where the two disagree.
double replay_eval_speedup(const wp::graph::Digraph& g,
                           const QueryStream& stream) {
  wp::graph::ThroughputEngine engine(g);
  const std::vector<int> ids = engine.resolve(stream.labels);
  const wp::fplan::ThroughputFn reference = fresh_howard_fn(g);
  std::vector<std::vector<int>> moved(stream.counts.size());
  for (std::size_t q = 1; q < stream.counts.size(); ++q)
    for (std::size_t c = 0; c < ids.size(); ++c)
      if (stream.counts[q][c] != stream.counts[q - 1][c])
        moved[q].push_back(static_cast<int>(c));
  std::vector<std::pair<std::string, int>> demand;
  for (const std::string& label : stream.labels) demand.emplace_back(label, 0);
  double engine_ms = 0, reference_ms = 0;
  std::uint64_t seen = 0;
  for (std::size_t q = 0; q < stream.counts.size(); ++q) {
    const std::vector<int>& counts = stream.counts[q];
    for (std::size_t c = 0; c < counts.size(); ++c)
      demand[c].second = counts[c];
    const auto engine_start = std::chrono::steady_clock::now();
    const double th =
        q == 0 ? engine.throughput(ids, counts)
               : engine.throughput(ids, counts, moved[q].data(),
                                   moved[q].size(), seen);
    engine_ms += ms_since(engine_start);
    seen = engine.stats().queries;
    const auto reference_start = std::chrono::steady_clock::now();
    const double reference_th = reference(demand);
    reference_ms += ms_since(reference_start);
    if (th != reference_th) {
      std::cerr << "THROUGHPUT ORACLE DIVERGENCE in replay at n="
                << g.num_nodes() << "\n";
      std::exit(1);
    }
  }
  return reference_ms / engine_ms;
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
    // Best of five annealing seeds (11..15) under each objective: the
    // seeds run concurrently, each with its own engine, and the seed-order
    // scan keeps only a strictly lower cost, so ties go to the lowest seed.
    constexpr std::size_t kSeeds = 5;
    std::vector<AnnealResult> seed_results(kSeeds);
    ThreadPool::shared().parallel_for(0, kSeeds, [&](std::size_t i) {
      AnnealOptions anneal_options;
      anneal_options.iterations = 20000;
      anneal_options.seed = 11 + i;
      anneal_options.delay_model = delay;
      graph::ThroughputEngine engine(cpu_graph);
      if (throughput_driven) {
        anneal_options.weight_throughput = 500.0;
        anneal_options.throughput_engine = &engine;
      }
      seed_results[i] = fplan::anneal(cpu, anneal_options);
    });
    std::size_t best = 0;
    for (std::size_t i = 1; i < kSeeds; ++i)
      if (seed_results[i].cost < seed_results[best].cost) best = i;
    const AnnealResult& result = seed_results[best];
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
    if (throughput_driven && result.throughput != out.static_th) {
      std::cerr << "REPORTED THROUGHPUT DIFFERS FROM A FRESH SOLVE of the "
                   "best CPU placement\n";
      return 1;
    }
    out.th_wp1 = row.th_wp1;
    out.th_wp2 = row.th_wp2;
    floorplan_rows.push_back(out);
    table.add_row({out.objective, fmt_fixed(out.area, 1),
                   fmt_fixed(out.wirelength, 1),
                   fmt_fixed(out.static_th, 3), fmt_fixed(out.th_wp1, 3),
                   fmt_fixed(out.th_wp2, 3)});
  }
  table.print(std::cout);
  if (floorplan_rows[1].static_th < floorplan_rows[0].static_th) {
    std::cerr << "CLAIM FAILED: the throughput-aware floorplan's static Th "
              << floorplan_rows[1].static_th << " is below the area-only "
              << floorplan_rows[0].static_th << "\n";
    return 1;
  }
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

  // Whole annealing runs under each engine: the end-to-end effect on the
  // path the multi-seed restarts and the ensemble runner sit on. The gated
  // number is anneal_speedup, the naive anneal's wall clock over the
  // MovePacker's in the same run, best of kAnnealReps each. Every rep runs
  // both engines at every size, so each size's samples spread over the
  // whole section: a 33-block anneal takes a few ms, and a slow stretch
  // of the host (which hits the MovePacker harder than naive pack())
  // held all nine back-to-back reps of one size, moving the ratio by
  // more than the gate's 25%.
  constexpr int kAnnealReps = 15;
  constexpr std::size_t kSizes[3] = {33, 100, 150};
  constexpr PackEngine kEngines[2] = {PackEngine::kNaive,
                                      PackEngine::kMovePacker};
  TextTable annealt({"blocks", "engine", "anneal ms", "pack ms", "speedup"});
  annealt.add_section("Area-driven anneal, 3000 iterations per run, best of " +
                      std::to_string(kAnnealReps));
  annealt.add_separator();
  std::vector<Instance> anneal_insts;
  for (const std::size_t blocks : kSizes)
    anneal_insts.push_back(fplan::synthetic_instance(blocks, 11));
  double engine_ms[3][2] = {};
  AnnealResult anneal_results[3][2];
  for (int rep = 0; rep < kAnnealReps; ++rep)
    for (std::size_t size = 0; size < 3; ++size)
      for (std::size_t idx = 0; idx < 2; ++idx) {
        AnnealOptions anneal_options;
        anneal_options.iterations = 3000;
        anneal_options.seed = 4;
        anneal_options.pack_engine = kEngines[idx];
        const auto start = std::chrono::steady_clock::now();
        anneal_results[size][idx] =
            fplan::anneal(anneal_insts[size], anneal_options);
        const double ms = ms_since(start);
        if (rep == 0 || ms < engine_ms[size][idx]) engine_ms[size][idx] = ms;
      }
  for (std::size_t size = 0; size < 3; ++size) {
    const AnnealResult* results = anneal_results[size];
    for (std::size_t idx = 0; idx < 2; ++idx) {
      const double ms = engine_ms[size][idx];
      const double speedup = idx == 0 ? 0.0 : engine_ms[size][0] / ms;
      anneal_rows.push_back({kSizes[size],
                             fplan::pack_engine_name(kEngines[idx]), ms,
                             results[idx].pack_ms, speedup});
      annealt.add_row({std::to_string(kSizes[size]),
                       fplan::pack_engine_name(kEngines[idx]),
                       fmt_fixed(ms, 1), fmt_fixed(results[idx].pack_ms, 1),
                       idx == 0 ? "1.0" : fmt_fixed(speedup, 1)});
    }
    if (results[0].cost != results[1].cost ||
        results[0].placement.x != results[1].placement.x) {
      std::cerr << "ANNEALER ENGINE DIVERGENCE at n=" << kSizes[size] << "\n";
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
  // the win is the throughput-eval share of the anneal. The gated
  // throughput_eval_speedup is not the ratio of the two anneals' th-eval
  // ms: the 150-block reference anneal runs for seconds, and a slow
  // stretch of the host landing on one anneal only moved that ratio by
  // more than the gate's 25%. The reference anneal records its query
  // stream instead, and replay_eval_speedup times both oracles on it.
  TextTable oraclet({"blocks", "oracle", "anneal ms", "th-eval ms",
                     "th share", "replayed eval speedup", "incr", "cold"});
  oraclet.add_section(
      "Throughput oracles (fresh-Howard reference vs incremental engine), "
      "throughput-driven anneal, 4000 iterations");
  oraclet.add_separator();
  for (const std::size_t blocks : {33u, 100u, 150u}) {
    const Instance inst = fplan::synthetic_instance(blocks, 7);
    const graph::Digraph g = graph_of_instance(inst);
    AnnealResult results[2];
    QueryStream stream;
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
        anneal_options.throughput_fn = recording(fresh_howard_fn(g), stream);
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
      if (use_engine) row.speedup = replay_eval_speedup(g, stream);
      oracle_rows.push_back(row);
      oraclet.add_row(
          {std::to_string(blocks), row.oracle, fmt_fixed(anneal_ms, 1),
           fmt_fixed(row.throughput_ms, 1),
           fmt_percent(row.throughput_ms / anneal_ms),
           use_engine ? fmt_fixed(row.speedup, 1) : std::string("1.0"),
           use_engine ? std::to_string(row.incremental) : "-",
           use_engine ? std::to_string(row.fallbacks) : "-"});
    }
    if (results[0].cost != results[1].cost ||
        results[0].placement.x != results[1].placement.x ||
        results[0].placement.y != results[1].placement.y ||
        results[0].throughput != results[1].throughput ||
        results[0].accepted_moves != results[1].accepted_moves ||
        results[0].throughput_evals != results[1].throughput_evals) {
      std::cerr << "THROUGHPUT ORACLE DIVERGENCE at n=" << blocks << "\n";
      return 1;
    }
    // The anneal reports the throughput it scored the best placement with;
    // it must be that placement's own, as a fresh solve gives it.
    if (results[1].throughput !=
        fresh_howard_fn(g)(rs_demand(inst, results[1].placement, delay))) {
      std::cerr << "REPORTED THROUGHPUT DIFFERS FROM A FRESH SOLVE of the "
                   "best placement at n="
                << blocks << "\n";
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
    json::JsonWriter json(file);
    json.begin_object();
    json.field("schema", "wirepipe-bench-floorplan/2");
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
    json.key("anneal").begin_array();
    for (const auto& r : anneal_rows) {
      json.begin_object();
      json.field("blocks", r.blocks)
          .field("pack_engine", r.engine)
          .field("anneal_ms", r.anneal_ms)
          .field("pack_ms", r.pack_ms);
      if (r.speedup != 0) json.field("anneal_speedup", r.speedup);
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
    // A ratio of two same-process wall-clock measurements, but of two
    // workloads rather than of a path and its reference: informational
    // (no _speedup suffix), outside the bench_diff gate.
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
      if (r.speedup != 0) json.field("throughput_eval_speedup", r.speedup);
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
