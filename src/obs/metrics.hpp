// The process-global metrics registry — one surface for every counter in
// the repo.
//
// Before this layer each performance-critical subsystem kept its own
// ad-hoc stats struct (EvalServer::Stats, GoldenCache::Stats,
// ThroughputEngine::Stats, AnnealResult's engine_* fields) and the numbers
// could only be seen where that struct happened to be printed. The
// registry gives them one home: named atomic counters, gauges and
// log₂-bucket latency histograms, registered once (mutex, cold path) and
// recorded lock-free afterwards (relaxed atomics — a record is one
// fetch_add, never a lock). A snapshot is deterministic (sorted by name)
// and exports through the same JsonWriter as the bench artifacts, so a
// metrics dump, a BENCH_*.json and a daemon stats scrape all speak the
// same format.
//
// Naming convention: `subsystem/metric` with '/' separators, e.g.
// "svc/server/requests", "anneal/iterations".
// Histograms record nanoseconds unless the name says otherwise.
//
// Instrumentation idiom (the hot-path form — resolve once, record often):
//
//   static obs::Counter& c = obs::Registry::global().counter("pack/packs");
//   c.inc();
//
// Registered metric objects live for the process (the registry never
// deletes), so cached references stay valid across Registry::reset_all(),
// which zeroes values but keeps registrations.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wp::json {
class JsonWriter;
}

namespace wp::obs {

/// Monotonic event count. All mutators are lock-free (relaxed atomics):
/// counters are aggregated, never used for cross-thread ordering.
class Counter {
 public:
  void inc() { add(1); }
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, live connections).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log₂-bucket histogram for latency-style values (record nanoseconds).
/// Bucket b counts values whose bit width is b: bucket 0 holds the value
/// 0, bucket b ≥ 1 holds [2^(b-1), 2^b). Recording is one relaxed
/// fetch_add on the bucket plus count/sum/max bookkeeping — no locks, no
/// allocation, safe from any thread. Percentiles interpolate inside the
/// chosen bucket assuming a uniform spread, so they are exact to within
/// one octave — the right fidelity for "did p99 double?" regression
/// questions, at hot-loop-compatible cost.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  ///< bit widths 0..64

  void record(std::uint64_t value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Value at percentile p ∈ [0, 100], interpolated within its bucket.
  /// 0 when the histogram is empty.
  double percentile(double p) const;

  /// Non-atomic consistent-enough copy for export (buckets are read
  /// relaxed; concurrent recording may skew a snapshot by a few events,
  /// which is fine for observability).
  std::vector<std::uint64_t> bucket_counts() const;

  void reset();

 private:
  static int bucket_of(std::uint64_t value);

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

// ---------------------------------------------------------------- Registry

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  /// Sparse bucket dump: (bit width, count) pairs for nonzero buckets.
  std::vector<std::pair<int, std::uint64_t>> buckets;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// Named metric store. Registration (counter()/gauge()/histogram()) takes
/// a mutex and is meant for cold paths or one-time static-local caching;
/// the returned references are stable for the life of the process.
class Registry {
 public:
  /// The process-global registry every subsystem records into.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Deterministic snapshot: every section sorted by name.
  MetricsSnapshot snapshot() const;

  /// Streams the snapshot as one JSON object (schema wirepipe-metrics/1):
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
  void write_json(json::JsonWriter& json) const;

  /// Zeroes every registered metric, keeping registrations (and therefore
  /// every cached reference) valid. Test isolation only.
  void reset_all();

 private:
  mutable std::mutex mutex_;
  // Node-based maps: pointers handed out must survive future insertions.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII nanosecond timer recording into a histogram on destruction:
///   { obs::ScopedTimer t(hist); hot_work(); }
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  std::uint64_t start_ns_;
};

/// Monotonic clock in nanoseconds (steady_clock), shared by the timer and
/// the span tracer so their timestamps are comparable.
std::uint64_t now_ns();

}  // namespace wp::obs
