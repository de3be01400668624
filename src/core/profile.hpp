// Communication-profile extraction (paper §Abstract: "takes advantage of a
// minimal knowledge of the IP's communication profile").
//
// The profiler runs the golden system and, before every firing, asks each
// process's oracle which inputs that transition reads. The per-input
// *excitation rate* (fraction of firings that require the input) is the
// communication profile: a rate near 1 means the WP2 wrapper cannot relax
// that channel (no gain over WP1); a low rate predicts a large WP2
// recovery when the channel is pipelined. bench_profile_noise prints it
// beside the simulated WP1/WP2 throughputs.
#pragma once

#include <string>
#include <vector>

#include "core/system.hpp"

namespace wp {

struct InputProfile {
  std::string process;
  std::string port;
  std::uint64_t firings = 0;
  std::uint64_t required = 0;

  /// Fraction of firings whose transition read this input.
  double excitation_rate() const {
    return firings == 0 ? 0.0
                        : static_cast<double>(required) /
                              static_cast<double>(firings);
  }
};

struct CommunicationProfile {
  std::vector<InputProfile> inputs;

  const InputProfile& at(const std::string& process,
                         const std::string& port) const;
};

/// Runs the golden system until halt (or max_cycles) with the profiling
/// observer attached and returns the measured profile.
CommunicationProfile profile_communication(const SystemSpec& spec,
                                           std::uint64_t max_cycles);

}  // namespace wp
