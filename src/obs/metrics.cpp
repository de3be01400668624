#include "obs/metrics.hpp"

#include <chrono>

#include "util/json.hpp"

namespace wp::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// -------------------------------------------------------------- Histogram

int Histogram::bucket_of(std::uint64_t value) {
  int width = 0;
  while (value != 0) {
    ++width;
    value >>= 1;
  }
  return width;  // 0 for the value 0, else position of the highest set bit
}

void Histogram::record(std::uint64_t value) {
  buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Lock-free running max; contention is rare (only when a new extreme
  // lands concurrently), so the CAS loop terminates quickly.
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed))
    ;
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kBuckets);
  for (int b = 0; b < kBuckets; ++b)
    out[static_cast<std::size_t>(b)] =
        buckets_[b].load(std::memory_order_relaxed);
  return out;
}

double Histogram::percentile(double p) const {
  const std::vector<std::uint64_t> buckets = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : buckets) total += c;
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Rank of the percentile event (1-based), then walk the buckets.
  const double rank = p / 100.0 * static_cast<double>(total);
  double cumulative = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      if (b == 0) return 0.0;  // bucket 0 holds only the value 0
      const double lo = static_cast<double>(1ull << (b - 1));
      const double hi = b >= 64 ? 2.0 * lo : static_cast<double>(1ull << b);
      // Uniform interpolation inside the octave.
      const double fraction =
          in_bucket == 0.0 ? 0.0 : (rank - cumulative) / in_bucket;
      return lo + (hi - lo) * fraction;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max());
}

void Histogram::reset() {
  for (int b = 0; b < kBuckets; ++b)
    buckets_[b].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------- Registry

Registry& Registry::global() {
  // Intentionally leaked: metrics are recorded from pool workers and
  // subsystem destructors that may outlive any exit-time destruction
  // order, so the registry must never be destroyed.
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_)  // std::map: sorted by name
    out.counters.emplace_back(name, counter->value());
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_)
    out.gauges.emplace_back(name, gauge->value());
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.max = histogram->max();
    h.mean = histogram->mean();
    h.p50 = histogram->percentile(50.0);
    h.p95 = histogram->percentile(95.0);
    h.p99 = histogram->percentile(99.0);
    const std::vector<std::uint64_t> buckets = histogram->bucket_counts();
    for (int b = 0; b < Histogram::kBuckets; ++b)
      if (buckets[static_cast<std::size_t>(b)] != 0)
        h.buckets.emplace_back(b, buckets[static_cast<std::size_t>(b)]);
    out.histograms.push_back(std::move(h));
  }
  return out;
}

void Registry::write_json(json::JsonWriter& json) const {
  const MetricsSnapshot snap = snapshot();
  json.begin_object();
  json.field("schema", "wirepipe-metrics/1");
  json.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) json.field(name, value);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges)
    json.field(name, static_cast<long long>(value));
  json.end_object();
  json.key("histograms").begin_object();
  for (const HistogramSnapshot& h : snap.histograms) {
    json.key(h.name).begin_object();
    json.field("count", h.count)
        .field("sum", h.sum)
        .field("max", h.max)
        .field("mean", h.mean)
        .field("p50", h.p50)
        .field("p95", h.p95)
        .field("p99", h.p99);
    json.key("buckets").begin_object();
    for (const auto& [bit_width, count] : h.buckets)
      json.field(std::to_string(bit_width), count);
    json.end_object();
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

void Registry::reset_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& entry : counters_) entry.second->reset();
  for (const auto& entry : gauges_) entry.second->reset();
  for (const auto& entry : histograms_) entry.second->reset();
}

// ------------------------------------------------------------ ScopedTimer

ScopedTimer::ScopedTimer(Histogram& histogram)
    : histogram_(histogram), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() { histogram_.record(now_ns() - start_ns_); }

}  // namespace wp::obs
