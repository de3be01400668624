#include "core/profile.hpp"

#include <algorithm>

#include "graph/cycles.hpp"
#include "util/assert.hpp"

namespace wp {

const InputProfile& CommunicationProfile::at(const std::string& process,
                                             const std::string& port) const {
  for (const auto& input : inputs)
    if (input.process == process && input.port == port) return input;
  WP_REQUIRE(false, "no profile entry for " + process + "." + port);
  return inputs.front();  // unreachable
}

CommunicationProfile profile_communication(const SystemSpec& spec,
                                           std::uint64_t max_cycles) {
  CommunicationProfile profile;
  std::map<std::pair<std::string, std::string>, std::size_t> index;

  GoldenSim golden(spec, false);
  golden.set_pre_fire_observer([&](const std::string& name,
                                   const Process& process,
                                   const Word* inputs) {
    // In golden runs every input is present.
    const std::size_t n = process.inputs().size();
    const InputMask mask =
        process.required(PeekView(all_inputs_mask(n), inputs, n));
    for (std::size_t i = 0; i < n; ++i) {
      const auto key = std::make_pair(name, process.inputs()[i].name);
      auto it = index.find(key);
      if (it == index.end()) {
        index.emplace(key, profile.inputs.size());
        profile.inputs.push_back({name, process.inputs()[i].name, 0, 0});
        it = index.find(key);
      }
      auto& entry = profile.inputs[it->second];
      ++entry.firings;
      if ((mask >> i) & 1u) ++entry.required;
    }
  });
  golden.run_until_halt(max_cycles);
  return profile;
}

std::vector<Wp2Estimate> estimate_wp2(
    const graph::Digraph& g, const CommunicationProfile& profile,
    const std::map<std::string, std::string>& edge_to_input) {
  std::vector<Wp2Estimate> estimates;
  for (const auto& cycle : graph::enumerate_cycles(g)) {
    Wp2Estimate est;
    est.loop = cycle_to_string(g, cycle);
    est.wp1 = cycle.throughput();
    est.excitation = 1.0;
    for (graph::EdgeId e : cycle.edges) {
      auto it = edge_to_input.find(g.edge(e).label);
      if (it == edge_to_input.end()) continue;  // treated as always excited
      const auto dot = it->second.find('.');
      WP_REQUIRE(dot != std::string::npos,
                 "edge_to_input values must be process.port");
      const auto& entry = profile.at(it->second.substr(0, dot),
                                     it->second.substr(dot + 1));
      est.excitation = std::min(est.excitation, entry.excitation_rate());
    }
    // Interpolate: a loop crossed only r of the time behaves as if its
    // extra latency were paid r of the time.
    const double m = static_cast<double>(cycle.tokens);
    const double n = static_cast<double>(cycle.relay_stations);
    est.wp2 = std::min(1.0, m / (m + n * est.excitation));
    estimates.push_back(std::move(est));
  }
  std::sort(estimates.begin(), estimates.end(),
            [](const Wp2Estimate& a, const Wp2Estimate& b) {
              return a.wp2 < b.wp2;
            });
  return estimates;
}

}  // namespace wp
