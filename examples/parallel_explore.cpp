// Parallel exploration engine tour: the same 8-restart throughput-driven
// annealing job run (a) sequentially and (b) on the thread pool, with a
// bit-identical-result check and the wall-clock speedup, followed by a
// relay-station sweep fanned out over the pool with its per-point critical
// loops. Exits non-zero if the parallel best diverges from the sequential
// best — this example doubles as the determinism smoke test.
#include <chrono>
#include <iostream>

#include "floorplan/annealer.hpp"
#include "floorplan/instances.hpp"
#include "graph/throughput_engine.hpp"
#include "proc/cpu.hpp"
#include "proc/experiment.hpp"
#include "sim/oracle.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool same_result(const wp::fplan::AnnealResult& a,
                 const wp::fplan::AnnealResult& b) {
  return a.cost == b.cost && a.area == b.area &&
         a.wirelength == b.wirelength && a.throughput == b.throughput &&
         a.seed == b.seed &&
         a.sequence_pair.positive == b.sequence_pair.positive &&
         a.sequence_pair.negative == b.sequence_pair.negative &&
         a.placement.x == b.placement.x && a.placement.y == b.placement.y;
}

}  // namespace

int main() {
  using namespace wp;

  const fplan::Instance cpu = fplan::cpu_instance();
  const graph::Digraph cpu_graph = proc::make_cpu_graph();

  fplan::ParallelAnnealOptions job;
  job.base.iterations = 20000;
  job.base.seed = 11;
  job.base.weight_throughput = 500.0;
  job.base.delay_model.clock_ps = 350.0;
  job.restarts = 8;
  job.engine_factory = [&cpu_graph]() {
    return std::make_unique<graph::ThroughputEngine>(cpu_graph);
  };

  std::cout << "Parallel exploration engine — " << job.restarts
            << " annealing restarts, " << ThreadPool::shared().size()
            << " pool workers\n\n";

  // (a) Sequential reference: the same seeds, one after another, reduced
  // in seed order (strict improvement, ties to the lowest seed).
  const auto sequential_start = Clock::now();
  fplan::AnnealResult sequential;
  for (int i = 0; i < job.restarts; ++i) {
    fplan::AnnealOptions options = job.base;
    options.seed = job.base.seed + static_cast<std::uint64_t>(i);
    const auto engine = job.engine_factory();
    options.throughput_engine = engine.get();
    fplan::AnnealResult restart = fplan::anneal(cpu, options);
    if (i == 0 || restart.cost < sequential.cost)
      sequential = std::move(restart);
  }
  const double sequential_s = seconds_since(sequential_start);

  // (b) The same job on the pool.
  const auto parallel_start = Clock::now();
  const fplan::AnnealResult parallel = fplan::anneal_parallel(cpu, job);
  const double parallel_s = seconds_since(parallel_start);

  TextTable table({"run", "wall (s)", "best cost", "best seed", "area",
                   "static Th"});
  table.add_separator();
  table.add_row({"sequential x8", fmt_fixed(sequential_s, 2),
                 fmt_fixed(sequential.cost, 4),
                 std::to_string(sequential.seed),
                 fmt_fixed(sequential.area, 2),
                 fmt_fixed(sequential.throughput, 3)});
  table.add_row({"anneal_parallel", fmt_fixed(parallel_s, 2),
                 fmt_fixed(parallel.cost, 4), std::to_string(parallel.seed),
                 fmt_fixed(parallel.area, 2),
                 fmt_fixed(parallel.throughput, 3)});
  table.print(std::cout);

  const bool identical = same_result(sequential, parallel);
  std::cout << "speedup: " << fmt_fixed(sequential_s / parallel_s, 2)
            << "x   best results bit-identical: "
            << (identical ? "yes" : "NO — DETERMINISM BUG") << "\n";
  std::cout << "oracle: " << parallel.throughput_evals
            << " min-cycle-ratio queries (one per scored placement); engine: "
            << parallel.engine_incremental << " incremental / "
            << parallel.engine_fallbacks
            << " cold re-solves (best restart)\n\n";

  // A relay-station sweep fanned over the same pool: every point is a
  // WP1/WP2 simulation pair against the shared cached golden (the
  // simulation oracle runs the golden once for the whole sweep), plus a
  // static loop inventory.
  const sim::GoldenCache::Stats oracle_before =
      sim::SimOracle::shared().stats();
  proc::ExperimentOptions options;
  options.check_equivalence = false;
  const proc::ParallelSweep sweep(proc::extraction_sort_program(16, 1), {},
                                  options);
  std::vector<proc::RsConfig> configs;
  for (int n = 0; n <= 4; ++n)
    configs.push_back({"CU-RF x" + std::to_string(n), {{"CU-RF", n}}});

  const auto sweep_start = Clock::now();
  const auto rows = sweep.run(configs);
  const auto reports = sweep.analyze(configs);
  const double sweep_s = seconds_since(sweep_start);

  TextTable sweep_table({"point", "Th WP1", "Th WP2", "critical loop"});
  sweep_table.add_section("CU-RF depth sweep on the pool (" +
                          fmt_fixed(sweep_s, 2) + " s)");
  sweep_table.add_separator();
  for (std::size_t i = 0; i < rows.size(); ++i)
    sweep_table.add_row({rows[i].label, fmt_fixed(rows[i].th_wp1, 3),
                         fmt_fixed(rows[i].th_wp2, 3),
                         reports[i].critical_loop.empty()
                             ? "(acyclic)"
                             : reports[i].critical_loop});
  sweep_table.print(std::cout);
  const sim::GoldenCache::Stats oracle_after =
      sim::SimOracle::shared().stats();
  std::cout << "simulation oracle: golden simulated "
            << oracle_after.golden_runs - oracle_before.golden_runs
            << "x for " << rows.size() << " sweep points ("
            << oracle_after.hits - oracle_before.hits << " cache hits)\n";

  return identical ? 0 : 1;
}
