// Stream AGC: the second case study as a walkthrough. Builds the DSP
// pipeline, profiles its communication, pipelines the feedback wire, and
// shows the amortization law Th_WP2 = K/(K+n) against Th_WP1 = m/(m+n).
#include <iostream>

#include "core/profile.hpp"
#include "stream/harness.hpp"
#include "util/table.hpp"

int main() {
  using namespace wp;

  // The paper pipeline: one branch, one FIR stage.
  stream::StreamGraphConfig config;
  config.tokens = 4000;
  config.fir_stages = 1;
  config.branches = 1;
  config.agc_period = 16;

  // 1. Profile the golden system: which inputs does each stage read?
  const CommunicationProfile profile =
      profile_communication(stream::make_stream_graph(config), 100000);
  std::cout << "Communication profile (AGC updates every "
            << config.agc_period << " samples):\n";
  for (const auto& input : profile.inputs)
    std::cout << "  " << input.process << "." << input.port
              << "  excitation " << fmt_fixed(input.excitation_rate(), 3)
              << "\n";

  // 2. The feedback wire is long and needs 2 relay stations.
  config.feedback_rs = 2;
  stream::HarnessOptions options;
  options.record_metrics = false;
  options.mode = stream::RunMode::kGolden;
  const stream::HarnessResult golden =
      stream::run_stream_graph(config, options);
  std::cout << "\ngolden: " << golden.cycles << " cycles for "
            << golden.tokens << " samples\n";

  // 3. Wire-pipelined runs.
  for (const stream::RunMode mode :
       {stream::RunMode::kWp1, stream::RunMode::kWp2}) {
    options.mode = mode;
    const stream::HarnessResult run = stream::run_stream_graph(config, options);
    std::cout << (mode == stream::RunMode::kWp2 ? "WP2" : "WP1") << ":    "
              << run.cycles << " cycles, throughput "
              << fmt_fixed(static_cast<double>(golden.cycles) /
                               static_cast<double>(run.cycles),
                           3)
              << ", output stream identical: "
              << (run.digest == golden.digest ? "yes" : "NO") << "\n";
  }
  std::cout << "\nWP1 is bound by the feedback loop (m/(m+n) = 3/5 = 0.6); "
               "WP2 pays the\nrelay-station latency only on the 1-in-16 "
               "firings that read the gain\n(K/(K+n) = 16/18 = 0.889).\n";
  return 0;
}
