// E9 — google-benchmark micro: raw speed of the simulation kernel and of
// the graph solvers, so downstream users can size their experiments.
#include <benchmark/benchmark.h>

#include "core/procs.hpp"
#include "core/system.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/cycles.hpp"
#include "gen/topologies.hpp"
#include "proc/experiment.hpp"
#include "util/rng.hpp"

namespace {

wp::SystemSpec ring_system(int m) {
  wp::SystemSpec spec;
  for (int i = 0; i < m; ++i)
    spec.add_process("p" + std::to_string(i), [i]() {
      return std::make_unique<wp::IdentityProcess>("p" + std::to_string(i),
                                                   static_cast<wp::Word>(i));
    });
  for (int i = 0; i < m; ++i)
    spec.add_channel("p" + std::to_string(i), "out",
                     "p" + std::to_string((i + 1) % m), "in",
                     "r" + std::to_string(i));
  return spec;
}

void BM_RingSimulation(benchmark::State& state) {
  wp::SystemSpec spec = ring_system(static_cast<int>(state.range(0)));
  spec.set_connection_rs("r0", 2);
  wp::LidSystem lid = build_lid(spec, wp::ShellOptions{}, false);
  for (auto _ : state) lid.network->step();
  const auto elements = static_cast<std::int64_t>(
      lid.network->shell_count() + lid.network->relay_station_count());
  state.SetItemsProcessed(state.iterations() * elements);
  state.counters["cycles/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RingSimulation)->Arg(4)->Arg(16)->Arg(64);

void BM_CpuGoldenSort(benchmark::State& state) {
  const auto program = wp::proc::extraction_sort_program(
      static_cast<std::size_t>(state.range(0)), 1);
  const auto spec = wp::proc::make_cpu_system(program, {});
  for (auto _ : state) {
    wp::GoldenSim golden(spec, false);
    benchmark::DoNotOptimize(golden.run_until_halt(2000000));
  }
}
BENCHMARK(BM_CpuGoldenSort)->Arg(8)->Arg(16)->Arg(32);

void BM_CpuWp2Sort(benchmark::State& state) {
  const auto program = wp::proc::extraction_sort_program(16, 1);
  auto spec = wp::proc::make_cpu_system(program, {});
  std::map<std::string, int> rs;
  for (const auto& name : wp::proc::cpu_connections())
    if (name != "CU-IC") rs[name] = static_cast<int>(state.range(0));
  spec.set_rs_map(rs);
  wp::ShellOptions shell;
  shell.use_oracle = true;
  for (auto _ : state) {
    wp::LidSystem lid = build_lid(spec, shell, false);
    benchmark::DoNotOptimize(lid.run_until_halt(2000000, 0));
  }
}
BENCHMARK(BM_CpuWp2Sort)->Arg(1)->Arg(2);

void BM_JohnsonCycles(benchmark::State& state) {
  wp::Rng rng(5);
  wp::gen::RandomGraphConfig config;
  config.num_nodes = static_cast<int>(state.range(0));
  config.edge_probability = 0.15;
  const auto g = wp::gen::random_digraph(config, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(wp::graph::enumerate_cycles(g, 5000000));
}
BENCHMARK(BM_JohnsonCycles)->Arg(6)->Arg(9)->Arg(12);

void BM_MinCycleRatio(benchmark::State& state) {
  wp::Rng rng(9);
  wp::gen::RandomGraphConfig config;
  config.num_nodes = static_cast<int>(state.range(0));
  config.edge_probability = 0.1;
  const auto g = wp::gen::random_digraph(config, rng);
  if (state.range(1) == 0) {
    for (auto _ : state)
      benchmark::DoNotOptimize(wp::graph::min_cycle_ratio_lawler(g));
  } else {
    for (auto _ : state)
      benchmark::DoNotOptimize(wp::graph::min_cycle_ratio_howard(g));
  }
}
BENCHMARK(BM_MinCycleRatio)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({512, 0})
    ->Args({512, 1});

}  // namespace

BENCHMARK_MAIN();
