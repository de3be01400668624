#include "graph/throughput.hpp"

#include <algorithm>

#include "graph/cycles.hpp"

namespace wp::graph {

ThroughputReport analyze_throughput(const Digraph& g) {
  ThroughputReport report;
  for (const auto& cycle : enumerate_cycles(g)) {
    LoopReportEntry entry;
    entry.description = cycle_to_string(g, cycle);
    entry.m = cycle.processes;
    entry.n = cycle.relay_stations;
    entry.throughput = cycle.throughput();
    report.loops.push_back(std::move(entry));
  }
  std::sort(report.loops.begin(), report.loops.end(),
            [](const LoopReportEntry& a, const LoopReportEntry& b) {
              if (a.throughput != b.throughput)
                return a.throughput < b.throughput;
              return a.description < b.description;
            });
  if (!report.loops.empty()) {
    report.system_throughput = report.loops.front().throughput;
    report.critical_loop = report.loops.front().description;
  }
  return report;
}

}  // namespace wp::graph
