// SimOracle — the batched golden-run replay engine behind every simulated
// WP1/WP2 number in the repo.
//
// The pre-oracle pipeline re-simulated the golden reference for every
// evaluation: each Table-1 row, each of the ~100 candidates the exhaustive
// RS optimizer scores, each ParallelSweep point. All of those share the
// same golden run — it depends only on (program, cpu, horizon), never on
// the relay-station configuration under test. The oracle keys a
// GoldenCache on exactly that triple: the first evaluation simulates the
// golden once (cycle count, τ-filtered trace + fingerprint, final-memory
// verdict), every subsequent evaluation — trace-equivalence check included
// — replays against the shared cached record. Results are bit-identical to
// the fresh-golden path (the golden run is deterministic; the differential
// suite in tests/test_sim_oracle.cpp holds the two paths together).
//
// Thread-safety: evaluations may run concurrently on a ThreadPool; the
// cache guarantees per-key once-semantics, so a pooled sweep over one
// program runs its golden exactly once no matter how many workers race.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "proc/experiment.hpp"
#include "sim/golden_cache.hpp"

namespace wp::graph {
class ThroughputEngine;
}

namespace wp::sim {

class SimOracle {
 public:
  /// LRU cap on cached golden records. Records hold full traces, so a
  /// long-lived process sweeping many programs keeps a bound.
  static constexpr std::size_t kMaxCachedGoldens = 64;

  SimOracle();
  ~SimOracle();  ///< out-of-line: static_engine_'s type is incomplete here

  SimOracle(const SimOracle&) = delete;
  SimOracle& operator=(const SimOracle&) = delete;

  /// The golden reference run for (program, cpu), simulated at most once
  /// per (program, cpu, max_cycles) key. Always records the τ-filtered
  /// trace and the final-memory verdict, so one record serves throughput,
  /// equivalence and verification consumers alike. The key hashes the
  /// program's source and data image — the cached verdict therefore
  /// requires ProgramSpec::verify to be a deterministic function of those
  /// (true of every generator in proc/programs.hpp).
  std::shared_ptr<const GoldenRecord> golden(const proc::ProgramSpec& program,
                                             const proc::CpuConfig& cpu,
                                             std::uint64_t max_cycles);

  /// The full experiment driver (one Table-1 row): WP1 and WP2 are
  /// simulated fresh, the golden side comes from the cache.
  proc::ExperimentRow run_experiment(const proc::ProgramSpec& program,
                                     const proc::CpuConfig& cpu,
                                     const proc::RsConfig& config,
                                     const proc::ExperimentOptions& options);

  /// The optimizer objective: simulated WP2 throughput of one RS map.
  /// Candidate evaluations after the first are golden-cache hits. Throws
  /// ContractViolation when the WP2 run does not halt within the default
  /// horizon.
  double wp2_throughput(const proc::ProgramSpec& program,
                        const proc::CpuConfig& cpu,
                        const std::map<std::string, int>& rs,
                        std::size_t fifo_capacity = 16);

  /// The assembled SystemSpec of (program, cpu), built at most once per
  /// content key and shared across every evaluation that runs it — a sweep
  /// over one program assembles its source once, each point copies the
  /// immutable declaration and applies its own RS map, instead of
  /// re-running make_cpu_system per golden/WP1/WP2 build. Thread-safe.
  std::shared_ptr<const wp::SystemSpec> system_spec(
      const proc::ProgramSpec& program, const proc::CpuConfig& cpu);

  /// Static m/(m+n) bound (minimum cycle ratio) of an RS configuration,
  /// served by a process-shared graph::ThroughputEngine over the Fig.-1
  /// CPU graph: the graph is built once and each query mutates it in
  /// place, replacing the per-row fresh-graph + cold-Lawler solve. Exactly
  /// the same ratios (both are exact minimum cycle ratios). Mutex-guarded
  /// — the engine itself is single-threaded and the query is microseconds
  /// next to the simulations around it.
  double static_bound(const std::map<std::string, int>& rs);

  struct SpecStats {
    std::uint64_t builds = 0;  ///< make_cpu_system invocations
    std::uint64_t reuses = 0;  ///< evaluations served by a cached spec
  };
  SpecStats spec_stats() const;

  GoldenCache::Stats stats() const { return cache_.stats(); }
  GoldenCache& cache() { return cache_; }

  /// Process-wide oracle used by the proc::run_experiment /
  /// proc::simulate_wp2_throughput free functions, so every client in one
  /// process shares the same golden records by default.
  static SimOracle& shared();

 private:
  GoldenCache cache_;

  mutable std::mutex spec_mutex_;
  /// Content key → immutable assembled spec. Distinct (program, cpu)
  /// pairs are few per process (Table-1 programs), so no eviction.
  std::map<std::string, std::shared_ptr<const wp::SystemSpec>> specs_;
  SpecStats spec_stats_;

  std::mutex static_mutex_;
  std::unique_ptr<graph::ThroughputEngine> static_engine_;  ///< lazy
};

}  // namespace wp::sim
