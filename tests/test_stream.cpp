// Tests of the DSP stream case study: fixed-point arithmetic, FIR impulse
// response, AGC convergence and cadence, and the paper pipeline's WP1/WP2
// behaviour with relay stations on the feedback link. The paper pipeline is
// make_stream_graph's one-branch, one-FIR graph.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "util/assert.hpp"

#include "core/profile.hpp"
#include "core/system.hpp"
#include "stream/harness.hpp"
#include "stream/stream.hpp"

namespace wp::stream {
namespace {

TEST(FixedPoint, RoundTripAndMultiply) {
  EXPECT_NEAR(fix_to_double(fix_from_double(0.5)), 0.5, 1e-4);
  EXPECT_NEAR(fix_to_double(fix_from_double(-1.25)), -1.25, 1e-4);
  const Word half = fix_from_double(0.5);
  const Word three = fix_from_double(3.0);
  EXPECT_NEAR(fix_to_double(fix_mul(half, three)), 1.5, 1e-3);
  const Word neg = fix_from_double(-2.0);
  EXPECT_NEAR(fix_to_double(fix_mul(neg, half)), -1.0, 1e-3);
}

TEST(Fir, ImpulseResponseEqualsTaps) {
  FirFilter fir("f", {fix_from_double(0.25), fix_from_double(0.5),
                      fix_from_double(0.25)});
  Word in[1], out[1];
  std::vector<double> response;
  in[0] = fix_from_double(1.0);
  fir.fire(in, out);
  response.push_back(fix_to_double(out[0]));
  in[0] = 0;
  for (int i = 0; i < 4; ++i) {
    fir.fire(in, out);
    response.push_back(fix_to_double(out[0]));
  }
  EXPECT_NEAR(response[0], 0.25, 1e-3);
  EXPECT_NEAR(response[1], 0.5, 1e-3);
  EXPECT_NEAR(response[2], 0.25, 1e-3);
  EXPECT_NEAR(response[3], 0.0, 1e-3);
}

TEST(Agc, EmitsFreshGainEveryPeriod) {
  AgcControl agc("a", 4, 0.25);
  Word in[1] = {fix_from_double(0.5)};
  Word out[1];
  for (int j = 0; j < 12; ++j) {
    agc.fire(in, out);
    EXPECT_EQ(AgcControl::fresh(out[0]), (j + 1) % 4 == 0) << j;
  }
}

TEST(Agc, SteersTowardTarget) {
  // Constant magnitude 0.8, target 0.2: gain must shrink toward 0.25.
  AgcControl agc("a", 8, 0.2);
  GainStage gain("g", 8);
  Word in[2], out[1];
  Word gain_token = static_cast<Word>(kFixOne);
  double last_gain = 1.0;
  for (int round = 0; round < 6; ++round) {
    for (int j = 0; j < 8; ++j) {
      in[0] = fix_from_double(0.8 * last_gain);
      agc.fire(in, out);
      gain_token = out[0];
    }
    ASSERT_TRUE(AgcControl::fresh(gain_token));
    last_gain = fix_to_double(gain_token & ~(Word{1} << 63));
  }
  EXPECT_NEAR(0.8 * last_gain, 0.2, 0.05);
  (void)gain;
}

TEST(StreamSystem, GoldenPipelineProducesBoundedOutput) {
  StreamGraphConfig config;
  config.tokens = 3000;
  const SystemSpec spec = make_stream_graph(config);
  GoldenSim golden(spec, false);
  golden.run_until_halt(100000);
  EXPECT_TRUE(golden.halted());
}

class StreamFeedbackRs : public ::testing::TestWithParam<int> {};

TEST_P(StreamFeedbackRs, Wp1HitsLoopBoundWp2RecoversToNearOne) {
  const int n = GetParam();
  StreamGraphConfig config;
  config.tokens = 3000;
  config.agc_period = 16;
  config.feedback_rs = n;  // on connection AGC0-GAIN0
  const SystemSpec spec = make_stream_graph(config);

  GoldenSim golden(spec, true);
  const std::uint64_t golden_cycles = golden.run_until_halt(100000);

  for (const bool oracle : {false, true}) {
    ShellOptions shell;
    shell.use_oracle = oracle;
    LidSystem lid = build_lid(spec, shell, true);
    const std::uint64_t cycles = lid.run_until_halt(1000000);
    ASSERT_TRUE(lid.network->halted(lid.shells.at("SNK0")));
    const double th = static_cast<double>(golden_cycles) /
                      static_cast<double>(cycles);

    const auto eq = check_equivalence(golden.trace(), lid.trace);
    ASSERT_TRUE(eq.equivalent) << eq.detail;

    // Loop GAIN -> QNT -> AGC -> GAIN has m = 3.
    const double wp1_bound = 3.0 / (3.0 + n);
    if (!oracle) {
      EXPECT_NEAR(th, wp1_bound, 0.02) << "n=" << n;
    } else {
      // WP2 pays the extra loop latency only on the one-in-period firings
      // that actually read the feedback: Th = period / (period + n). The
      // fresh gain depends on the full sample window, so it cannot arrive
      // any earlier — the relaxation amortizes, not removes, the latency.
      const double wp2_bound = 16.0 / (16.0 + n);
      EXPECT_NEAR(th, wp2_bound, 0.02) << "n=" << n;
      EXPECT_GE(th, wp1_bound - 0.02) << "n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FeedbackDepth, StreamFeedbackRs,
                         ::testing::Values(0, 1, 2, 4, 8));

TEST(StreamSystem, SinkSamplesIdenticalAcrossExecutions) {
  StreamGraphConfig config;
  config.tokens = 1500;
  config.feedback_rs = 3;
  config.sink.keep_samples = true;
  SystemSpec spec = make_stream_graph(config);
  spec.set_connection_rs("FIR0_0-GAIN0", 1);

  GoldenSim golden(spec, false);
  golden.run_until_halt(100000);
  const auto& golden_sink =
      dynamic_cast<const StreamSink&>(golden.process("SNK0"));

  for (const bool oracle : {false, true}) {
    ShellOptions shell;
    shell.use_oracle = oracle;
    LidSystem lid = build_lid(spec, shell, false);
    lid.run_until_halt(1000000);
    const auto& sink = dynamic_cast<const StreamSink&>(
        lid.network->process(lid.shells.at("SNK0")));
    ASSERT_GE(sink.samples().size(), golden_sink.samples().size());
    for (std::size_t i = 0; i < golden_sink.samples().size(); ++i)
      ASSERT_EQ(sink.samples()[i], golden_sink.samples()[i])
          << (oracle ? "WP2" : "WP1") << " sample " << i;
  }
}

TEST(StreamSystem, ProfilerSeesTheFeedbackDutyCycle) {
  StreamGraphConfig config;
  config.tokens = 2000;
  config.agc_period = 16;
  const SystemSpec spec = make_stream_graph(config);
  const CommunicationProfile profile = profile_communication(spec, 100000);
  EXPECT_NEAR(profile.at("GAIN0", "gain").excitation_rate(), 1.0 / 16, 0.01);
  EXPECT_DOUBLE_EQ(profile.at("GAIN0", "sample").excitation_rate(), 1.0);
  EXPECT_DOUBLE_EQ(profile.at("AGC0", "mag").excitation_rate(), 1.0);
}

TEST(StreamSystem, NoiseDoesNotChangeTheStream) {
  StreamGraphConfig config;
  config.tokens = 1000;
  const SystemSpec spec = make_stream_graph(config);
  GoldenSim golden(spec, true);
  golden.run_until_halt(100000);

  ShellOptions shell;
  shell.use_oracle = true;
  NoiseOptions noise;
  noise.stall_probability = 0.25;
  noise.seed = 5;
  LidSystem lid = build_lid(spec, shell, true, noise);
  lid.run_until_halt(2000000);
  const auto eq = check_equivalence(golden.trace(), lid.trace);
  EXPECT_TRUE(eq.equivalent) << eq.detail;
}

// The paper pipeline — SRC → FIR → GAIN → QNT → SNK with the AGC loop —
// is the one-branch, one-FIR stream graph. These cycle counts and sink
// digests pin its golden, WP1 and WP2 behaviour for 4,000 tokens at the
// default seed, AGC target and taps.
TEST(PaperPipeline, CyclesAndSinkDigestPinned) {
  struct Pin {
    std::uint64_t period;
    int feedback_rs;
    std::uint64_t golden, wp1, wp2, digest;
  };
  for (const Pin& pin : {
           Pin{16, 0, 4000, 4000, 4000, 0x494e067fcac0b9baULL},
           Pin{16, 2, 4000, 6666, 4498, 0x494e067fcac0b9baULL},
           Pin{4, 8, 4000, 14664, 11992, 0x0cc268074f9b76bdULL},
           Pin{64, 1, 4000, 5333, 4062, 0x67c44a74a18984d6ULL},
       }) {
    StreamGraphConfig config;
    config.tokens = 4000;
    config.fir_stages = 1;
    config.branches = 1;
    config.agc_period = pin.period;
    config.feedback_rs = pin.feedback_rs;
    SCOPED_TRACE("K=" + std::to_string(pin.period) +
                 " n=" + std::to_string(pin.feedback_rs));
    HarnessOptions options;
    options.record_metrics = false;
    for (const auto& [mode, cycles] :
         {std::pair{RunMode::kGolden, pin.golden},
          std::pair{RunMode::kWp1, pin.wp1},
          std::pair{RunMode::kWp2, pin.wp2}}) {
      options.mode = mode;
      const HarnessResult result = run_stream_graph(config, options);
      EXPECT_EQ(result.cycles, cycles) << run_mode_name(mode);
      ASSERT_EQ(result.sink_digests.size(), 1u);
      EXPECT_EQ(result.sink_digests[0], pin.digest) << run_mode_name(mode);
    }
  }
}

TEST(StreamSink, DefaultRetentionIsStatsOnly) {
  const StreamSink sink("s", 8, StreamGraphConfig{}.sink);
  EXPECT_THROW(sink.samples(), ContractViolation);
}

}  // namespace
}  // namespace wp::stream
