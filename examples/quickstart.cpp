// Quickstart: build a three-process latency-insensitive system, pipeline a
// wire with relay stations, and watch the WP2 oracle recover the
// throughput the strict WP1 wrapper loses.
//
//   src ──► duty ──► echo ─┐         duty reads the feedback input only
//            ▲             │         once every 4 firings; the loopback
//            └── loopback ◄┘         wire carries 2 relay stations.
#include <iostream>

#include "core/procs.hpp"
#include "core/system.hpp"

int main() {
  using namespace wp;

  // 1. Describe the system once; instantiate it per execution style.
  SystemSpec spec;
  spec.add_process("src", []() { return std::make_unique<CounterSource>("src"); });
  spec.add_process("duty", []() {
    return std::make_unique<DutyCycleProcess>("duty", /*period=*/4);
  });
  spec.add_process("echo", []() {
    return std::make_unique<IdentityProcess>("echo", /*reset_out=*/0);
  });
  spec.add_channel("src", "out", "duty", "a");
  spec.add_channel("duty", "out", "echo", "in");
  spec.add_channel("echo", "out", "duty", "b", "loopback");

  // 2. Wire pipelining: the loopback wire is too long for one clock and
  //    gets two relay stations.
  spec.set_connection_rs("loopback", 2);

  // 3. Golden reference (the original synchronous system).
  GoldenSim golden(spec, /*record_trace=*/true);
  for (int i = 0; i < 2000; ++i) golden.step();

  // 4. Run the wire-pipelined system with both wrappers.
  for (const bool oracle : {false, true}) {
    ShellOptions options;
    options.use_oracle = oracle;
    LidSystem lid = build_lid(spec, options, /*record_trace=*/true);
    for (int i = 0; i < 2000; ++i) lid.network->step();

    const auto& stats = lid.network->stats(lid.shells.at("duty"));
    const double throughput = static_cast<double>(stats.firings) / 2000.0;
    const auto eq = check_equivalence(golden.trace(), lid.trace);

    std::cout << (oracle ? "WP2 (oracle wrapper):  " : "WP1 (strict wrapper):  ")
              << "throughput " << throughput
              << ", discarded stale tokens " << stats.discarded_tokens
              << ", equivalent to golden: "
              << (eq.equivalent ? "yes" : "NO — " + eq.detail) << "\n";
  }
  std::cout << "\nThe strict wrapper is pinned to the loop bound "
               "m/(m+n) = 2/4 = 0.5;\nthe oracle wrapper only waits on the "
               "1-in-4 firings that read the\nfeedback input (loop "
               "round-trip 4+2 cycles per 4 firings = 0.667) —\nthe paper's "
               "headline effect.\n";
  return 0;
}
