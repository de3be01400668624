// Shared types of the wirepipe benchmark driver: run options, metric
// records, sample statistics and the in-memory span recorder the traced
// runs use.
//
// Spans are recorded here, in the benchmark, around the calls it makes
// into the library's public surfaces (gen, fplan, graph, eval, svc,
// stream). A span has a name, a start, an end, a parent and the id of the
// request it belongs to; spans stay in memory and are written out when
// the run ends. A layer's self time is its span's duration minus the part
// its direct children cover, so per request the self times of all spans,
// the root's own remainder ("bench.unattributed") included, add up to the
// request's measured time exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wpbench {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns();
double ms_since(std::uint64_t start_ns);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short runs for the benchmark's own tests; a smoke
  /// run exercises every path and check but its numbers mean nothing.
  bool smoke = false;
  std::string out_dir = ".";
  std::string evald_path;
};

/// Values of one timing or ratio with order statistics.
struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  std::size_t count() const { return values.size(); }
  /// Nearest-rank percentile (wp::percentile), p in [0, 100]; 0 when
  /// empty.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< values the figure was computed from
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything one run of one workload produced.
struct Report {
  std::vector<Metric> metrics;  ///< end-to-end or per-layer, by mode
  /// Host-time figures reported beside the gated ones (median, tail
  /// percentile, mean rate, tokens/s); printed, not gated.
  std::vector<Metric> infos;
  /// Simulated outputs: deterministic in the seed, identical across runs
  /// and across commits that only change speed.
  std::vector<Metric> simulated;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     ///< error replies, protocol errors, mismatches
  std::vector<Check> checks;
  std::uint64_t results_digest = 0;  ///< over all simulated outputs
  /// Raw distributions behind the timings, summarized in the record by
  /// their quantiles (p0, p1, p10, p25, p50, p75, p90, p99, p100).
  std::map<std::string, Samples> distributions;
  std::string summary;          ///< traced runs: per-layer table
  std::string span_file;        ///< traced runs: where the spans went

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  void info(const std::string& name, double value, const std::string& unit,
            std::size_t samples);
  void simulate(const std::string& name, double value,
                const std::string& unit, std::size_t samples);
  void check(const std::string& name, bool ok, const std::string& detail);
  bool correct() const;
};

// ------------------------------------------------------------------ spans

struct Span {
  std::uint64_t request = 0;
  std::string kind;          ///< the request's kind (its root span name)
  std::size_t parent = kNoParent;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// An aggregate the library reports as a duration (AnnealResult's
  /// pack_ms/throughput_ms, the harness's wall_ms, scraped server time)
  /// rather than an interval the benchmark timed; placed inside its
  /// parent at the parent's start.
  bool synthetic = false;

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
};

/// Single-threaded span store; concurrent clients own one each and the
/// run merges them with absorb().
class Tracer {
 public:
  /// Opens the root span of a new request; returns its index.
  std::size_t begin_request(const std::string& kind);
  std::size_t open(const std::string& name, std::size_t parent);
  void close(std::size_t index);
  /// Adds a synthetic child of `parent` lasting `duration_ns`; returns
  /// its index.
  std::size_t add_synthetic(const std::string& name, std::size_t parent,
                            std::uint64_t duration_ns);

  void absorb(const Tracer& other);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t duration_ns(std::size_t index) const;

  /// Self time per span name of every request of `kind`, in ms: one value
  /// per request (names a request lacks contribute 0). The root's own
  /// self time is reported under "bench.unattributed".
  std::map<std::string, Samples> self_ms(const std::string& kind) const;
  /// Measured time of every request of `kind`, in ms.
  Samples request_ms(const std::string& kind) const;
  /// Largest |sum of self times - request time| over all requests, ns.
  std::uint64_t max_additivity_error_ns() const;

  /// One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t next_request_ = 0;
};

/// RAII span: opens on construction, closes on destruction. A null tracer
/// records nothing, so untraced code paths share the traced ones.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, std::size_t parent);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::size_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::size_t index_ = Span::kNoParent;
};

// --------------------------------------------------------------- reporting

/// A metric BENCHMARK.json declares. A run prints every end-to-end metric
/// (untraced) or every per-layer metric (traced), in declaration order.
struct MetricSpec {
  std::string name;
  std::string unit;
};
/// The metrics of one section ("end_to_end" or "per_layer") of the
/// benchmark description at `path`; throws if it cannot be read.
std::vector<MetricSpec> load_metric_specs(const std::string& path,
                                          const std::string& section);

/// Renders the traced run's per-layer table for the given request kinds.
std::string summary_table(const Tracer& tracer,
                          const std::vector<std::string>& kinds,
                          double trace_overhead);

/// Prints the full result record (fingerprint, metrics with sample counts,
/// checks, digests) and then, as the last line, the contract object
/// {"correct", "attempted", "failed", "metrics"}.
void print_report(const Options& options,
                  const std::vector<MetricSpec>& specs, const Report& report);

/// Peak resident set of this process (VmHWM: this program's own image,
/// not the launcher's it was forked from), MB.
double peak_rss_self_mb();
/// Largest peak resident set among waited-for children (ru_maxrss; a
/// child's figure is at least this process's resident set when it forked).
double peak_rss_children_mb();

// -------------------------------------------------------------- workloads

Report run_anneal_area(const Options& options);
Report run_anneal_throughput(const Options& options);
Report run_fabric(const Options& options);
Report run_stream(const Options& options);

}  // namespace wpbench
