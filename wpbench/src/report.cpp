// Statistics, the span recorder, the machine fingerprint and the result
// printer of the benchmark driver.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace wpbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

namespace {

/// One-line form of a JsonWriter document: drops each newline and the
/// indentation after it (string values never hold raw newlines).
std::string compact(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\n') {
      out += text[i];
      continue;
    }
    while (i + 1 < text.size() && text[i + 1] == ' ') ++i;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- Samples

double Samples::percentile(double p) const {
  return values.empty() ? 0.0 : wp::percentile(values, p);
}

// ----------------------------------------------------------------- Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics.push_back(Metric{name, value, unit, samples});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  infos.push_back(Metric{name, value, unit, samples});
}

void Report::simulate(const std::string& name, double value,
                      const std::string& unit, std::size_t samples) {
  simulated.push_back(Metric{name, value, unit, samples});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks.push_back(Check{name, ok, detail});
}

bool Report::correct() const {
  if (failed != 0 || attempted == 0) return false;
  for (const Check& c : checks)
    if (!c.ok) return false;
  return true;
}

// ----------------------------------------------------------------- Tracer

std::size_t Tracer::begin_request(const std::string& kind) {
  Span span;
  span.request = next_request_++;
  span.kind = kind;
  span.name = kind;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

std::size_t Tracer::open(const std::string& name, std::size_t parent) {
  Span span;
  span.request = spans_[parent].request;
  span.kind = spans_[parent].kind;
  span.parent = parent;
  span.name = name;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) { spans_[index].end_ns = now_ns(); }

std::size_t Tracer::add_synthetic(const std::string& name,
                                  std::size_t parent,
                                  std::uint64_t duration_ns) {
  Span span;
  span.request = spans_[parent].request;
  span.kind = spans_[parent].kind;
  span.parent = parent;
  span.name = name;
  span.start_ns = spans_[parent].start_ns;
  span.end_ns = span.start_ns + duration_ns;
  span.synthetic = true;
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void Tracer::absorb(const Tracer& other) {
  const std::size_t offset = spans_.size();
  const std::uint64_t request_offset = next_request_;
  for (Span span : other.spans_) {
    span.request += request_offset;
    if (span.parent != Span::kNoParent) span.parent += offset;
    spans_.push_back(std::move(span));
  }
  next_request_ += other.next_request_;
}

std::uint64_t Tracer::duration_ns(std::size_t index) const {
  const Span& span = spans_[index];
  return span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
}

namespace {

/// Per-request self time by span name, in ns, for one request root.
struct RequestSelf {
  std::uint64_t total_ns = 0;
  std::map<std::string, std::uint64_t> self_ns;
};

std::map<std::size_t, RequestSelf> self_by_request(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != Span::kNoParent)
      child_ns[spans[i].parent] += tracer.duration_ns(i);
  std::map<std::uint64_t, std::size_t> root_of_request;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent == Span::kNoParent)
      root_of_request[spans[i].request] = i;

  std::map<std::size_t, RequestSelf> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::size_t root = root_of_request.at(spans[i].request);
    const std::uint64_t duration = tracer.duration_ns(i);
    const std::uint64_t self =
        duration > child_ns[i] ? duration - child_ns[i] : 0;
    RequestSelf& request = out[root];
    if (i == root) {
      request.total_ns = duration;
      request.self_ns["bench.unattributed"] += self;
    } else {
      request.self_ns[spans[i].name] += self;
    }
  }
  return out;
}

}  // namespace

std::map<std::string, Samples> Tracer::self_ms(const std::string& kind) const {
  const std::map<std::size_t, RequestSelf> requests = self_by_request(*this);
  std::vector<std::string> names;
  for (const auto& [root, request] : requests)
    if (spans_[root].kind == kind)
      for (const auto& [name, ns] : request.self_ns) {
        (void)ns;
        if (std::find(names.begin(), names.end(), name) == names.end())
          names.push_back(name);
      }
  std::map<std::string, Samples> out;
  for (const auto& [root, request] : requests) {
    if (spans_[root].kind != kind) continue;
    for (const std::string& name : names) {
      const auto it = request.self_ns.find(name);
      out[name].add(it == request.self_ns.end()
                        ? 0.0
                        : static_cast<double>(it->second) / 1e6);
    }
  }
  return out;
}

Samples Tracer::request_ms(const std::string& kind) const {
  Samples out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent == Span::kNoParent && spans_[i].kind == kind)
      out.add(static_cast<double>(duration_ns(i)) / 1e6);
  return out;
}

std::uint64_t Tracer::max_additivity_error_ns() const {
  std::uint64_t worst = 0;
  for (const auto& [root, request] : self_by_request(*this)) {
    (void)root;
    std::uint64_t sum = 0;
    for (const auto& [name, ns] : request.self_ns) {
      (void)name;
      sum += ns;
    }
    const std::uint64_t error = sum > request.total_ns
                                    ? sum - request.total_ns
                                    : request.total_ns - sum;
    worst = std::max(worst, error);
  }
  return worst;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::ostringstream line;
    wp::json::JsonWriter json(line);
    json.begin_object();
    json.field("id", static_cast<unsigned long long>(i));
    json.field("request", static_cast<unsigned long long>(span.request));
    json.field("kind", span.kind);
    json.key("parent");
    if (span.parent == Span::kNoParent)
      json.null_value();
    else
      json.value(static_cast<unsigned long long>(span.parent));
    json.field("name", span.name);
    json.field("start_ns", static_cast<unsigned long long>(span.start_ns));
    json.field("end_ns", static_cast<unsigned long long>(span.end_ns));
    json.field("synthetic", span.synthetic);
    json.end_object();
    out << compact(line.str()) << "\n";
  }
}

SpanScope::SpanScope(Tracer* tracer, const std::string& name,
                     std::size_t parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(name, parent);
}

SpanScope::~SpanScope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

// ---------------------------------------------------------- metric specs

std::vector<MetricSpec> load_metric_specs(const std::string& path,
                                          const std::string& section) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const wp::json::Value spec = wp::json::Value::parse(text.str());
  const wp::json::Value* list = spec.find(section);
  if (list == nullptr || !list->is_array())
    throw std::runtime_error(path + " has no \"" + section + "\" list");
  std::vector<MetricSpec> out;
  for (std::size_t i = 0; i < list->size(); ++i) {
    const wp::json::Value& metric = list->at(i);
    const wp::json::Value* name = metric.find("name");
    const wp::json::Value* unit = metric.find("unit");
    if (name == nullptr || unit == nullptr)
      throw std::runtime_error(path + ": a " + section +
                               " metric lacks its name or unit");
    out.push_back(MetricSpec{name->as_string(), unit->as_string()});
  }
  return out;
}

// -------------------------------------------------------- summary table

namespace {

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace

std::string summary_table(const Tracer& tracer,
                          const std::vector<std::string>& kinds,
                          double trace_overhead) {
  std::ostringstream os;
  char line[256];
  for (const std::string& kind : kinds) {
    const Samples total = tracer.request_ms(kind);
    if (total.count() == 0) continue;
    os << "request kind " << kind << ": " << total.count()
       << " requests, median " << fixed(total.median(), 3) << " ms\n";
    std::snprintf(line, sizeof(line), "  %-28s %12s %12s %8s %7s\n",
                  "layer (self time)", "median ms", "p90 ms", "share", "n");
    os << line;
    const std::map<std::string, Samples> self = tracer.self_ms(kind);
    double total_sum = 0.0;
    for (double v : total.values) total_sum += v;
    for (const auto& [name, samples] : self) {
      double sum = 0.0;
      for (double v : samples.values) sum += v;
      std::snprintf(line, sizeof(line), "  %-28s %12s %12s %7s%% %7zu\n",
                    name.c_str(), fixed(samples.median(), 4).c_str(),
                    fixed(samples.percentile(90.0), 4).c_str(),
                    fixed(total_sum > 0 ? 100.0 * sum / total_sum : 0.0, 1)
                        .c_str(),
                    samples.count());
      os << line;
    }
  }
  os << "trace overhead (traced p50 / untraced p50 - 1): "
     << fixed(trace_overhead, 4) << "\n";
  os << "largest per-request |sum of self times - request time|: "
     << tracer.max_additivity_error_ns() << " ns\n";
  return os.str();
}

// ------------------------------------------------------------ fingerprint

double peak_rss_self_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double peak_rss_children_mb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // stop at the first NUL
    const std::size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

// --------------------------------------------------------------- printing

void print_report(const Options& options,
                  const std::vector<MetricSpec>& specs, const Report& report) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : report.metrics) by_name[m.name] = &m;

  if (!report.summary.empty()) std::cout << report.summary;

  // Human-readable lines: every metric by name, with unit and samples.
  for (const MetricSpec& spec : specs) {
    const auto it = by_name.find(spec.name);
    if (it == by_name.end()) {
      std::cout << "metric " << spec.name << " = 0 " << spec.unit
                << " (layer not on this workload's path)\n";
    } else {
      std::cout << "metric " << spec.name << " = " << it->second->value << " "
                << spec.unit << " (n=" << it->second->samples << ")\n";
    }
  }
  const double fail_ratio =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::vector<Metric> reported = report.infos;
  reported.push_back(Metric{"fail_ratio", fail_ratio, "ratio",
                            static_cast<std::size_t>(report.attempted)});
  for (const Metric& m : reported)
    std::cout << "reported " << m.name << " = " << m.value << " " << m.unit
              << " (n=" << m.samples << ")\n";
  for (const Metric& m : report.simulated)
    std::cout << "simulated " << m.name << " = " << m.value << " " << m.unit
              << " (n=" << m.samples << ")\n";
  for (const Check& c : report.checks)
    std::cout << "check " << c.name << ": " << (c.ok ? "ok" : "FAILED")
              << (c.detail.empty() ? "" : " — " + c.detail) << "\n";
  std::cout << "results digest " << wp::hash_hex(report.results_digest)
            << "\n";

  auto write_metrics = [](wp::json::JsonWriter& json, const char* key,
                          const std::vector<Metric>& metrics) {
    json.key(key).begin_object();
    for (const Metric& m : metrics) {
      json.key(m.name).begin_object();
      json.field("value", m.value);
      json.field("unit", m.unit);
      json.field("samples", static_cast<unsigned long long>(m.samples));
      json.end_object();
    }
    json.end_object();
  };
  std::ostringstream record;
  {
    wp::json::JsonWriter json(record);
    json.begin_object();
    json.field("schema", "wpbench-record/1");
    json.field("workload", options.workload);
    json.field("seed", static_cast<unsigned long long>(options.seed));
    json.field("seconds", options.seconds);
    json.field("trace", options.trace);
    json.field("smoke", options.smoke);
    json.key("fingerprint").begin_object();
    json.field("nproc", static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN)));
    json.field("cpu_model", cpu_model());
    json.field("compiler", compiler());
    json.field("build_type", WPBENCH_BUILD_TYPE);
    json.field("wp_tracing", WP_OBS_TRACING != 0);
    json.end_object();
    json.field("attempted", static_cast<unsigned long long>(report.attempted));
    json.field("failed", static_cast<unsigned long long>(report.failed));
    json.field("fail_ratio", fail_ratio);
    json.field("results_digest", wp::hash_hex(report.results_digest));
    write_metrics(json, "reported", reported);
    write_metrics(json, "simulated", report.simulated);
    json.key("distributions").begin_object();
    for (const auto& [name, samples] : report.distributions) {
      json.key(name).begin_object();
      json.field("n", static_cast<unsigned long long>(samples.count()));
      for (const int p : {0, 1, 10, 25, 50, 75, 90, 99, 100})
        json.field("p" + std::to_string(p), samples.percentile(p));
      json.end_object();
    }
    json.end_object();
    json.key("metrics").begin_object();
    for (const MetricSpec& spec : specs) {
      const auto it = by_name.find(spec.name);
      json.key(spec.name).begin_object();
      json.field("value", it == by_name.end() ? 0.0 : it->second->value);
      json.field("unit", spec.unit);
      json.field("samples", static_cast<unsigned long long>(
                                it == by_name.end() ? 0 : it->second->samples));
      json.field("present", it != by_name.end());
      json.end_object();
    }
    json.end_object();
    json.key("checks").begin_object();
    for (const Check& c : report.checks) json.field(c.name, c.ok);
    json.end_object();
    if (!report.span_file.empty()) json.field("span_file", report.span_file);
    json.end_object();
  }
  std::cout << "record " << compact(record.str()) << "\n";

  // The last line: the contract object.
  std::ostringstream last;
  {
    wp::json::JsonWriter json(last);
    json.begin_object();
    json.field("correct", report.correct());
    json.field("attempted", static_cast<unsigned long long>(report.attempted));
    json.field("failed", static_cast<unsigned long long>(report.failed));
    json.key("metrics").begin_object();
    for (const MetricSpec& spec : specs) {
      const auto it = by_name.find(spec.name);
      json.key(spec.name).begin_object();
      json.field("value", it == by_name.end() ? 0.0 : it->second->value);
      json.field("unit", spec.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }
  std::cout << compact(last.str()) << std::endl;
}

}  // namespace wpbench
