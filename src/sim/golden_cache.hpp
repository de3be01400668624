// The golden-run cache at the heart of the simulation oracle.
//
// Every WP1/WP2 evaluation in the repo — a Table-1 row, an optimizer
// candidate, a sweep point, an ensemble sample — is *relative* to a golden
// reference run: throughput is golden_cycles / wp_cycles and equivalence is
// checked against the golden's τ-filtered trace. The golden run depends
// only on the (system, horizon) pair, never on the relay-station
// configuration under evaluation, so re-simulating it per evaluation is
// pure waste. GoldenCache memoizes it: the first caller of a key simulates
// (once-semantics — concurrent callers of the same key block on the one
// in-flight run instead of duplicating it), every later caller replays
// against the shared immutable record.
//
// Records are reference-counted: eviction (LRU, optional size cap) drops
// the cache's reference, while evaluations still holding the record keep
// using it safely. All methods are thread-safe; the compute function runs
// outside the cache lock, so long simulations never serialize unrelated
// keys.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/system.hpp"

namespace wp::sim {

/// Everything a WP evaluation needs from the golden reference run.
/// Equivalence is checked with wp::check_equivalence(record.trace, wp).
struct GoldenRecord {
  std::uint64_t cycles = 0;   ///< cycles simulated (halt cycle, or horizon)
  bool halted = false;        ///< did a process halt within the horizon?
  Trace trace;                ///< τ-filtered execution trace
  std::uint64_t fingerprint = 0;  ///< order-sensitive digest of the trace
  bool result_ok = true;      ///< final-memory verdict (program runs only)
  std::string result_detail;  ///< first verification failure, if any
};

/// Order-sensitive digest of a τ-filtered trace (stream names + values).
std::uint64_t trace_fingerprint(const Trace& trace);

class GoldenCache {
 public:
  /// `max_entries` caps the number of cached records (LRU eviction);
  /// 0 = unbounded. The cap is soft while runs are in flight: an entry
  /// whose golden is still computing is never evicted (evicting it would
  /// let a racing caller start a duplicate run of the same key).
  explicit GoldenCache(std::size_t max_entries = 0);

  using ComputeFn = std::function<GoldenRecord()>;

  /// Returns the record for `key`, running `compute` exactly once per key
  /// across all threads (waiters block on the in-flight run). Failure path
  /// (std::call_once semantics): a throwing compute propagates to its
  /// caller, each blocked waiter then retries the compute in turn — a
  /// deterministic failure therefore throws once per waiting caller — and
  /// the key is dropped from the map, so failed keys neither occupy
  /// capacity nor poison later retries. Once-semantics is only guaranteed
  /// for the success path.
  std::shared_ptr<const GoldenRecord> get_or_run(const std::string& key,
                                                 const ComputeFn& compute);

  /// The only home of the cache's counts: published through
  /// SimOracle::stats() and the daemon scrape's golden_cache section.
  struct Stats {
    std::uint64_t hits = 0;         ///< evaluations served from the cache
    std::uint64_t misses = 0;       ///< evaluations that created a slot
    std::uint64_t golden_runs = 0;  ///< compute() invocations that finished
    std::uint64_t evictions = 0;    ///< records dropped by the size cap
    std::size_t entries = 0;        ///< records currently cached
  };
  Stats stats() const;

 private:
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const GoldenRecord> record;
    bool done = false;  ///< set under the cache mutex when compute finished
  };

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  /// Most-recently-used key at the front; LRU eviction pops the back.
  std::list<std::string> lru_;
  struct Entry {
    std::shared_ptr<Slot> slot;
    std::list<std::string>::iterator lru_pos;
  };
  std::map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace wp::sim
