#include "core/profile.hpp"

#include <map>
#include <utility>

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

}  // namespace wp
