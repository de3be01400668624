// SimOracle — the batched golden-run replay engine behind every simulated
// WP1/WP2 number in the repo.
//
// The pre-oracle pipeline re-simulated the golden reference for every
// evaluation: each Table-1 row, each of the ~100 candidates the exhaustive
// RS optimizer scores, each relay-station sweep point. All of those share the
// same golden run — it depends only on (program, cpu, horizon), never on
// the relay-station configuration under test. The oracle keys a
// GoldenCache on exactly that triple: the first evaluation simulates the
// golden once (cycle count, τ-filtered trace + fingerprint, final-memory
// verdict), every subsequent evaluation — trace-equivalence check included
// — replays against the shared cached record. Results are bit-identical to
// the fresh-golden path (the golden run is deterministic; the differential
// suite in tests/test_sim_oracle.cpp holds the two paths together).
//
// The golden run is the only cache. Everything else an evaluation needs is
// built fresh: make_cpu_system costs ~12 µs and the static m/(m+n) bound
// ~3.5 µs, next to ~1 ms for one WP2 simulation (Release, gcc 12.2,
// 4-vCPU Xeon), so neither pays for a cache of its own.
//
// Thread-safety: evaluations may run concurrently on a ThreadPool; the
// cache guarantees per-key once-semantics, so a pooled sweep over one
// program runs its golden exactly once no matter how many workers race.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "proc/experiment.hpp"
#include "sim/golden_cache.hpp"

namespace wp::sim {

class SimOracle {
 public:
  SimOracle();

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
  /// simulated fresh, the golden side comes from the cache, and the static
  /// m/(m+n) bound is one certified Howard solve on the Fig.-1 graph. A program
  /// without a verifier has no result to check: its rows keep result_ok.
  proc::ExperimentRow run_experiment(const proc::ProgramSpec& program,
                                     const proc::CpuConfig& cpu,
                                     const proc::RsConfig& config,
                                     const proc::ExperimentOptions& options);

  /// The optimizer objective: simulated WP2 throughput of one RS map.
  /// Candidate evaluations after the first are golden-cache hits. Equals
  /// the th_wp2 of the run_experiment row for the same RS map. Throws
  /// ContractViolation when the WP2 run does not halt within the default
  /// horizon.
  double wp2_throughput(const proc::ProgramSpec& program,
                        const proc::CpuConfig& cpu,
                        const std::map<std::string, int>& rs,
                        std::size_t fifo_capacity = 16);

  GoldenCache::Stats stats() const { return cache_.stats(); }
  GoldenCache& cache() { return cache_; }

  /// Process-wide oracle of proc::run_experiment and optimal_config, and of
  /// eval::evaluate when its context names none: every client in one
  /// process shares the same golden records by default.
  static SimOracle& shared();

 private:
  GoldenCache cache_;
};

}  // namespace wp::sim
