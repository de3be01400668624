#include "obs/bench_diff.hpp"

#include <cmath>
#include <map>

namespace wp::obs {

namespace {

/// Flattens every numeric leaf of a document into path → (key, value).
/// Array elements use index paths ("anneal[1].anneal_speedup"), so the
/// diff only lines up when both documents keep the same ordering — which
/// the bench emitters guarantee (fixed scenario lists).
void flatten(const json::Value& value, const std::string& path,
             const std::string& leaf_key,
             std::map<std::string, std::pair<std::string, double>>& out) {
  switch (value.kind()) {
    case json::Value::Kind::kNumber:
      out.emplace(path, std::make_pair(leaf_key, value.as_double()));
      break;
    case json::Value::Kind::kObject:
      for (const json::Value::Member& member : value.members()) {
        const std::string child =
            path.empty() ? member.first : path + "." + member.first;
        flatten(member.second, child, member.first, out);
      }
      break;
    case json::Value::Kind::kArray:
      for (std::size_t i = 0; i < value.size(); ++i)
        flatten(value.at(i), path + "[" + std::to_string(i) + "]", leaf_key,
                out);
      break;
    default:
      break;  // strings/bools/nulls are labels, not metrics
  }
}

}  // namespace

bool is_gated(const std::string& key) {
  static const std::string kSuffix = "_speedup";
  return key.size() >= kSuffix.size() &&
         key.compare(key.size() - kSuffix.size(), kSuffix.size(), kSuffix) ==
             0;
}

std::size_t BenchDiffReport::regressions() const {
  std::size_t n = 0;
  for (const MetricDelta& delta : deltas)
    if (delta.regression) ++n;
  return n;
}

BenchDiffReport diff_benchmarks(const json::Value& baseline,
                                const json::Value& fresh) {
  std::map<std::string, std::pair<std::string, double>> base_leaves;
  std::map<std::string, std::pair<std::string, double>> fresh_leaves;
  flatten(baseline, "", "", base_leaves);
  flatten(fresh, "", "", fresh_leaves);

  BenchDiffReport report;
  for (const auto& [path, base_entry] : base_leaves) {
    const auto it = fresh_leaves.find(path);
    if (it == fresh_leaves.end()) {
      report.missing_in_fresh.push_back(path);
      continue;
    }
    MetricDelta delta;
    delta.path = path;
    delta.baseline = base_entry.second;
    delta.fresh = it->second.second;
    const double denom = std::fabs(delta.baseline);
    delta.change = denom == 0.0 ? 0.0 : (delta.fresh - delta.baseline) / denom;
    delta.gated = is_gated(base_entry.first);
    // baseline / fresh − 1 > threshold, without dividing by a zero fresh.
    delta.regression =
        delta.gated &&
        delta.baseline > delta.fresh * (1.0 + kRegressionThreshold);
    report.deltas.push_back(std::move(delta));
  }
  for (const auto& [path, entry] : fresh_leaves) {
    (void)entry;
    if (base_leaves.find(path) == base_leaves.end())
      report.missing_in_baseline.push_back(path);
  }
  return report;
}

void write_diff_report(const BenchDiffReport& report, json::JsonWriter& json) {
  json.begin_object();
  json.field("schema", "wirepipe-bench-diff/2")
      .field("threshold", kRegressionThreshold)
      .field("pass", report.pass())
      .field("regressions",
             static_cast<unsigned long long>(report.regressions()));
  json.key("metrics").begin_array();
  for (const MetricDelta& delta : report.deltas) {
    json.begin_object();
    json.field("path", delta.path)
        .field("baseline", delta.baseline)
        .field("fresh", delta.fresh)
        .field("change", delta.change)
        .field("gated", delta.gated)
        .field("regression", delta.regression);
    json.end_object();
  }
  json.end_array();
  json.key("missing_in_fresh").begin_array();
  for (const std::string& path : report.missing_in_fresh) json.value(path);
  json.end_array();
  json.key("missing_in_baseline").begin_array();
  for (const std::string& path : report.missing_in_baseline) json.value(path);
  json.end_array();
  json.end_object();
}

}  // namespace wp::obs
