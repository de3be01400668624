// Simulation-oracle suite: golden-cache semantics (once-per-key under
// thread-pool contention, LRU eviction at the size cap, cached-vs-fresh
// golden equality) plus the differential guarantee the refactor rests on —
// oracle-backed run_experiment/wp2_throughput rows are bit-identical to
// the pre-refactor fresh-golden path, reimplemented here verbatim as the
// reference.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "core/procs.hpp"
#include "graph/cycle_ratio.hpp"
#include "proc/blocks.hpp"
#include "proc/experiment.hpp"
#include "sim/netlist_sim.hpp"
#include "sim/oracle.hpp"
#include "util/thread_pool.hpp"

namespace wp::sim {
namespace {

using proc::CpuConfig;
using proc::ExperimentOptions;
using proc::ExperimentRow;
using proc::ProgramSpec;
using proc::RsConfig;

// ------------------------------------------------------------ GoldenCache

GoldenRecord tiny_record(std::uint64_t cycles) {
  GoldenRecord record;
  record.cycles = cycles;
  record.halted = true;
  return record;
}

TEST(GoldenCache, ComputesOncePerKeyAndHitsAfterwards) {
  GoldenCache cache;
  int runs = 0;
  const auto compute = [&] {
    ++runs;
    return tiny_record(7);
  };
  const auto first = cache.get_or_run("k", compute);
  const auto second = cache.get_or_run("k", compute);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(first.get(), second.get());  // the shared record, not a copy
  EXPECT_EQ(second->cycles, 7u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.golden_runs, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(GoldenCache, OnceSemanticsUnderThreadPoolContention) {
  GoldenCache cache;
  std::atomic<int> runs{0};
  ThreadPool pool(4);
  pool.parallel_for(0, 64, [&](std::size_t) {
    const auto record = cache.get_or_run("shared", [&] {
      ++runs;
      return tiny_record(42);
    });
    EXPECT_EQ(record->cycles, 42u);
  });
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(cache.stats().golden_runs, 1u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 64u);
}

TEST(GoldenCache, EvictsLeastRecentlyUsedAtTheCap) {
  GoldenCache cache(/*max_entries=*/2);
  int runs = 0;
  const auto compute_for = [&](std::uint64_t cycles) {
    return [&runs, cycles] {
      ++runs;
      return tiny_record(cycles);
    };
  };
  cache.get_or_run("a", compute_for(1));
  cache.get_or_run("b", compute_for(2));
  cache.get_or_run("a", compute_for(1));  // touch: a is now most recent
  EXPECT_EQ(runs, 2);
  cache.get_or_run("c", compute_for(3));  // evicts b, the LRU entry
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  // a survived the eviction...
  cache.get_or_run("a", compute_for(1));
  EXPECT_EQ(runs, 3);
  // ...and b did not: asking again recomputes.
  cache.get_or_run("b", compute_for(2));
  EXPECT_EQ(runs, 4);
}

TEST(GoldenCache, ThrowingComputeRetriesOnNextCall) {
  GoldenCache cache;
  int calls = 0;
  EXPECT_THROW(cache.get_or_run("k",
                                [&]() -> GoldenRecord {
                                  ++calls;
                                  throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The failed key is dropped entirely: no dead slot occupies capacity.
  EXPECT_EQ(cache.stats().entries, 0u);
  const auto record = cache.get_or_run("k", [&] {
    ++calls;
    return tiny_record(9);
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(record->cycles, 9u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(GoldenCache, ThrowingComputeNeverEvictsHealthyRecords) {
  GoldenCache cache(/*max_entries=*/2);
  int runs = 0;
  cache.get_or_run("good", [&] {
    ++runs;
    return tiny_record(1);
  });
  for (int i = 0; i < 4; ++i) {
    EXPECT_THROW(
        cache.get_or_run("bad" + std::to_string(i),
                         [&]() -> GoldenRecord {
                           throw std::runtime_error("boom");
                         }),
        std::runtime_error);
  }
  // "good" is still cached despite four failing keys passing through.
  cache.get_or_run("good", [&] {
    ++runs;
    return tiny_record(1);
  });
  EXPECT_EQ(runs, 1);
}

TEST(GoldenCache, SoftCapHoldsUnderContention) {
  // A cap-2 cache cycling through 8 keys on 4 workers: eviction runs while
  // other slots are still in flight, and workers race for the same keys.
  constexpr std::size_t kCap = 2;
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kKeys = 8;
  GoldenCache cache(kCap);
  std::array<std::atomic<int>, kKeys> running{};
  std::atomic<int> overlapping_runs{0};
  std::atomic<int> mismatches{0};
  std::atomic<std::size_t> max_entries{0};
  ThreadPool pool(kWorkers);
  pool.parallel_for(0, 256, [&](std::size_t i) {
    // Scattered key order: pool chunks do not walk the keys in lockstep.
    const std::size_t key = ((i * 2654435761u) >> 7) % kKeys;
    const auto record = cache.get_or_run("k" + std::to_string(key), [&] {
      // Two runs of one key at once would mean an in-flight slot was
      // evicted and a racing caller started a duplicate.
      if (running[key].fetch_add(1) != 0) ++overlapping_runs;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      --running[key];
      return tiny_record(100 + key);
    });
    if (record->cycles != 100 + key) ++mismatches;
    const std::size_t entries = cache.stats().entries;
    std::size_t seen = max_entries.load();
    while (entries > seen &&
           !max_entries.compare_exchange_weak(seen, entries)) {
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(overlapping_runs.load(), 0);
  const GoldenCache::Stats stats = cache.stats();
  // Every miss ran its golden exactly once: no slot ran twice.
  EXPECT_EQ(stats.golden_runs, stats.misses);
  EXPECT_EQ(stats.hits + stats.misses, 256u);
  EXPECT_GT(stats.evictions, 0u);
  // In-flight slots are never evicted, so the cap is exceeded by at most
  // one slot per worker.
  EXPECT_LE(max_entries.load(), kCap + kWorkers);
}

// ------------------------------------------------- cached vs fresh golden

TEST(SimOracle, CachedGoldenEqualsFreshRun) {
  const ProgramSpec program = proc::extraction_sort_program(8, 5);
  const CpuConfig cpu;
  SimOracle oracle;
  const auto cached = oracle.golden(program, cpu, 2000000);

  wp::GoldenSim fresh(proc::make_cpu_system(program, cpu), true);
  const std::uint64_t fresh_cycles = fresh.run_until_halt(2000000);

  EXPECT_EQ(cached->cycles, fresh_cycles);
  EXPECT_TRUE(cached->halted);
  EXPECT_TRUE(cached->result_ok) << cached->result_detail;
  EXPECT_EQ(cached->trace, fresh.trace());
  EXPECT_EQ(cached->fingerprint, trace_fingerprint(fresh.trace()));
  EXPECT_NE(cached->fingerprint, 0u);

  // An identical but separately constructed ProgramSpec shares the record.
  const auto again =
      oracle.golden(proc::extraction_sort_program(8, 5), cpu, 2000000);
  EXPECT_EQ(again.get(), cached.get());
  EXPECT_EQ(oracle.stats().golden_runs, 1u);

  // A different CPU fashion is a different key.
  CpuConfig multicycle;
  multicycle.multicycle = true;
  const auto other = oracle.golden(program, multicycle, 2000000);
  EXPECT_NE(other->cycles, cached->cycles);
  EXPECT_EQ(oracle.stats().golden_runs, 2u);
}

// ------------------------------------------- pre-refactor differential

/// The pre-oracle run_experiment, kept verbatim as the reference the
/// refactor must stay bit-identical to: golden re-simulated inline for
/// every evaluation.
ExperimentRow reference_run_experiment(const ProgramSpec& program,
                                       const CpuConfig& cpu,
                                       const RsConfig& config,
                                       const ExperimentOptions& options) {
  const auto dcache_of = [](const wp::Process& p) -> const proc::DcacheBlock& {
    const auto* dc = dynamic_cast<const proc::DcacheBlock*>(&p);
    EXPECT_NE(dc, nullptr);
    return *dc;
  };
  ExperimentRow row;
  row.label = config.label;
  auto note = [&row](const std::string& msg) {
    if (row.detail.empty()) row.detail = msg;
  };

  wp::SystemSpec spec = proc::make_cpu_system(program, cpu);
  wp::GoldenSim golden(spec, options.check_equivalence);
  row.golden_cycles = golden.run_until_halt(options.max_cycles);
  EXPECT_TRUE(golden.halted());
  if (options.verify_result) {
    std::string error;
    if (!program.verify(dcache_of(golden.process("DC")).memory(), &error)) {
      row.result_ok = false;
      note("golden result check failed: " + error);
    }
  }

  spec.set_rs_map(config.rs);
  for (const bool oracle : {false, true}) {
    wp::ShellOptions shell;
    shell.use_oracle = oracle;
    shell.fifo_capacity = options.fifo_capacity;
    wp::LidSystem lid = build_lid(spec, shell, options.check_equivalence);
    const std::uint64_t cycles = lid.run_until_halt(options.max_cycles);
    if (!lid.network->halted(lid.shells.at("CU"))) {
      note(std::string(oracle ? "WP2" : "WP1") +
           " run did not halt within max_cycles");
    }
    if (options.check_equivalence) {
      const auto eq = check_equivalence(golden.trace(), lid.trace);
      if (!eq.equivalent) {
        if (oracle)
          row.wp2_equivalent = false;
        else
          row.wp1_equivalent = false;
        note(std::string(oracle ? "WP2" : "WP1") +
             " not equivalent to golden: " + eq.detail);
      }
    }
    if (options.verify_result) {
      std::string error;
      if (!program.verify(
              dcache_of(lid.network->process(lid.shells.at("DC"))).memory(),
              &error)) {
        row.result_ok = false;
        note(std::string(oracle ? "WP2" : "WP1") +
             " result check failed: " + error);
      }
    }
    (oracle ? row.wp2_cycles : row.wp1_cycles) = cycles;
  }

  row.th_wp1 = static_cast<double>(row.golden_cycles) /
               static_cast<double>(row.wp1_cycles);
  row.th_wp2 = static_cast<double>(row.golden_cycles) /
               static_cast<double>(row.wp2_cycles);
  row.improvement = (row.th_wp2 - row.th_wp1) / row.th_wp1;
  wp::graph::Digraph g = proc::make_cpu_graph();
  for (wp::graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    auto it = config.rs.find(g.edge(e).label);
    if (it != config.rs.end()) g.edge(e).relay_stations = it->second;
  }
  row.static_wp1 = wp::graph::min_cycle_ratio_exhaustive(g).ratio;
  return row;
}

void expect_rows_identical(const ExperimentRow& a, const ExperimentRow& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.golden_cycles, b.golden_cycles);
  EXPECT_EQ(a.wp1_cycles, b.wp1_cycles);
  EXPECT_EQ(a.wp2_cycles, b.wp2_cycles);
  EXPECT_EQ(a.th_wp1, b.th_wp1);  // exact: same integers divided
  EXPECT_EQ(a.th_wp2, b.th_wp2);
  EXPECT_EQ(a.improvement, b.improvement);
  EXPECT_EQ(a.static_wp1, b.static_wp1);
  EXPECT_EQ(a.wp1_equivalent, b.wp1_equivalent);
  EXPECT_EQ(a.wp2_equivalent, b.wp2_equivalent);
  EXPECT_EQ(a.result_ok, b.result_ok);
  EXPECT_EQ(a.detail, b.detail);
}

class OracleDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(OracleDifferential, RunExperimentMatchesPreRefactorReference) {
  const bool use_matmul = GetParam();
  const ProgramSpec program = use_matmul ? proc::matmul_program(3, 5)
                                         : proc::extraction_sort_program(8, 5);
  const CpuConfig cpu;
  // The matmul list is a superset of the sort list: every Table-1 row.
  const std::vector<RsConfig> configs = proc::table1_matmul_configs();
  SimOracle oracle;  // private oracle: isolates the replay count below
  for (const bool check_equivalence : {true, false}) {
    ExperimentOptions options;
    options.check_equivalence = check_equivalence;
    for (const auto& config : configs) {
      SCOPED_TRACE(config.label);
      const ExperimentRow fresh =
          reference_run_experiment(program, cpu, config, options);
      const ExperimentRow cached =
          oracle.run_experiment(program, cpu, config, options);
      expect_rows_identical(fresh, cached);
    }
  }
  // Every evaluation shares one (program, cpu, horizon) key: the golden
  // ran once where the reference path re-simulated it per row.
  EXPECT_EQ(oracle.stats().golden_runs, 1u);
}

INSTANTIATE_TEST_SUITE_P(Programs, OracleDifferential, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "matmul" : "sort";
                         });

TEST(SimOracle, Wp2ThroughputMatchesExperimentRow) {
  for (const ProgramSpec& program :
       {proc::extraction_sort_program(8, 3), proc::matmul_program(3, 5)}) {
    SimOracle oracle;
    ExperimentOptions options;
    options.check_equivalence = false;
    for (const RsConfig& config : proc::table1_matmul_configs()) {
      SCOPED_TRACE(program.name + " / " + config.label);
      const double th = oracle.wp2_throughput(program, {}, config.rs);
      const ExperimentRow row =
          oracle.run_experiment(program, {}, config, options);
      // Both report the halt cycle, taken before any grace period runs,
      // over the same golden: the same integers divided.
      EXPECT_EQ(th, row.th_wp2);
    }
    EXPECT_EQ(oracle.stats().golden_runs, 1u);  // shared across every call
  }
}

TEST(SimOracle, ProgramWithoutVerifierHasNothingToCheck) {
  const ProgramSpec program = proc::extraction_sort_program(8, 5);
  ProgramSpec unverified = program;
  unverified.verify = nullptr;
  const RsConfig config{"Only RF-DC", {{"RF-DC", 1}}};
  // Verifier-free first: on a cold cache its golden run is the one kept.
  const ExperimentRow bare = proc::run_experiment(unverified, {}, config);
  const ExperimentRow checked = proc::run_experiment(program, {}, config);
  EXPECT_TRUE(bare.result_ok) << bare.detail;
  EXPECT_TRUE(checked.result_ok) << checked.detail;
  EXPECT_EQ(bare.golden_cycles, checked.golden_cycles);
  EXPECT_EQ(bare.wp1_cycles, checked.wp1_cycles);
  EXPECT_EQ(bare.wp2_cycles, checked.wp2_cycles);
  EXPECT_EQ(SimOracle::shared().wp2_throughput(unverified, {}, config.rs),
            bare.th_wp2);
}

// ------------------------------------------ pooled ≡ sequential, one cache

TEST(SimOracle, PooledSweepMatchesSequentialWithSharedCache) {
  const ProgramSpec program = proc::extraction_sort_program(8, 3);
  ExperimentOptions options;
  options.check_equivalence = false;
  std::vector<RsConfig> configs;
  for (int n = 0; n <= 3; ++n)
    configs.push_back({"RF-ALU x" + std::to_string(n), {{"RF-ALU", n}}});

  SimOracle sequential_oracle;
  std::vector<ExperimentRow> sequential;
  for (const auto& config : configs)
    sequential.push_back(
        sequential_oracle.run_experiment(program, {}, config, options));

  SimOracle pooled_oracle;
  proc::ParallelSweep sweep(program, {}, options);
  sweep.set_oracle(&pooled_oracle);
  ThreadPool pool(4);
  const std::vector<ExperimentRow> pooled = sweep.run(configs, &pool);

  ASSERT_EQ(pooled.size(), sequential.size());
  for (std::size_t i = 0; i < pooled.size(); ++i)
    expect_rows_identical(sequential[i], pooled[i]);
  // Per-key once-semantics: four workers racing for one program key still
  // run the golden exactly once.
  EXPECT_EQ(pooled_oracle.stats().golden_runs, 1u);
  EXPECT_EQ(sequential_oracle.stats().golden_runs, 1u);
}

// --------------------------------------------------- netlist simulation

const char kTinyNetlist[] =
    "system tiny\n"
    "process a randommoore inputs=1 outputs=1 states=4 seed=7\n"
    "process b randommoore inputs=1 outputs=1 states=4 seed=9\n"
    "channel a.out0 -> b.in0 connection=ab\n"
    "channel b.out0 -> a.in0 connection=ba\n";

TEST(NetlistSim, EquivalentAndNoSlowerThanWp1) {
  NetlistSimOptions options;
  options.golden_cycles = 128;
  options.wp_cycles = 512;
  const std::map<std::string, int> rs = {{"ab", 1}, {"ba", 2}};
  const NetlistSimResult result = simulate_netlist(kTinyNetlist, rs, options);
  EXPECT_TRUE(result.wp1_equivalent) << result.detail;
  EXPECT_TRUE(result.wp2_equivalent) << result.detail;
  EXPECT_GT(result.wp1_firings, 0u);
  // Two processes, three registers around the loop (1 + 2 RS each way
  // +... ): throughput strictly below 1, above 0.
  EXPECT_GT(result.th_wp1, 0.0);
  EXPECT_LT(result.th_wp1, 1.0);
  EXPECT_GE(result.th_wp2 + 1e-9, result.th_wp1);
  EXPECT_NE(result.golden_fingerprint, 0u);
}

TEST(NetlistSim, CachedGoldenSharedAcrossRsConfigurations) {
  NetlistSimOptions options;
  options.golden_cycles = 128;
  options.wp_cycles = 512;
  GoldenCache cache;
  const NetlistSimResult deep = simulate_netlist(
      kTinyNetlist, {{"ab", 2}, {"ba", 2}}, options, &cache);
  const NetlistSimResult shallow =
      simulate_netlist(kTinyNetlist, {{"ab", 1}}, options, &cache);
  EXPECT_EQ(cache.stats().golden_runs, 1u);  // rs is not part of the key
  EXPECT_EQ(deep.golden_fingerprint, shallow.golden_fingerprint);
  // Deeper pipelining never raises throughput.
  EXPECT_LE(deep.th_wp1, shallow.th_wp1 + 1e-9);

  // Cached and fresh (cache-less) evaluations agree bit-for-bit.
  const NetlistSimResult fresh =
      simulate_netlist(kTinyNetlist, {{"ab", 1}}, options, nullptr);
  EXPECT_EQ(fresh.th_wp1, shallow.th_wp1);
  EXPECT_EQ(fresh.th_wp2, shallow.th_wp2);
  EXPECT_EQ(fresh.golden_fingerprint, shallow.golden_fingerprint);
}

TEST(NetlistSim, ZeroRsRunsAtFullThroughput) {
  NetlistSimOptions options;
  options.golden_cycles = 64;
  options.wp_cycles = 256;
  const NetlistSimResult result = simulate_netlist(kTinyNetlist, {}, options);
  EXPECT_DOUBLE_EQ(result.th_wp1, 1.0);
  EXPECT_DOUBLE_EQ(result.th_wp2, 1.0);
  EXPECT_TRUE(result.wp1_equivalent && result.wp2_equivalent);
}

}  // namespace
}  // namespace wp::sim
