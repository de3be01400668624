// The streaming front end's differential + hardening suite:
//
//   * golden ≡ WP1 ≡ WP2 bit-for-bit (per-sink digests) across AGC
//     periods × feedback relay-station depths × graph shapes;
//   * stats-only sinks are observationally identical to keep-all sinks
//     (count, digest, Welford stats, tail window) at O(1) memory;
//   * the latent stream bugs stay fixed: degenerate configs fail at
//     spec-build time, fix_from_double rejects NaN/out-of-range, the
//     shell's ring FIFO wraps and overflows loudly, and a harness that
//     exhausts its cycle budget throws instead of reporting a truncated
//     throughput;
//   * the remote path: StreamJob/StreamResult wire round trips, a live
//     EvalServer returns byte-identical StreamResults to in-process
//     evaluation (also sharded over two servers), and the daemon stats
//     scrape exposes the stream/* metrics the harness flushes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/token_ring.hpp"
#include "eval/evaluate.hpp"
#include "eval/request.hpp"
#include "obs/metrics.hpp"
#include "stream/harness.hpp"
#include "stream/stream.hpp"
#include "svc/eval_client.hpp"
#include "svc/eval_server.hpp"
#include "util/assert.hpp"
#include "util/wire.hpp"

#include <unistd.h>

namespace wp::stream {
namespace {

// ----------------------------------------------------------- TokenRing

TEST(TokenRing, WrapsAroundWithoutLosingOrder) {
  // A ring is a window of a shared pool: words 1..3 of five. The words
  // outside the window must never be written.
  std::vector<Word> pool(5, kPoisonWord);
  TokenRing ring(1, 3);
  EXPECT_TRUE(ring.empty());
  for (Word w = 0; w < 2; ++w) ring.push_back(pool.data(), w);
  ring.pop_front();
  // The head is now at word 1 of the window; two more pushes wrap.
  ring.push_back(pool.data(), 2);
  ring.push_back(pool.data(), 3);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(pool, (std::vector<Word>{kPoisonWord, 3, 1, 2, kPoisonWord}));
  for (Word expected = 1; expected <= 3; ++expected) {
    EXPECT_EQ(ring.front(pool.data()), expected);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(TokenRing, OverflowAndEmptyFrontFailLoudly) {
  std::vector<Word> pool(1, kPoisonWord);
  TokenRing ring(0, 1);
  EXPECT_THROW(ring.front(pool.data()), ContractViolation);
  ring.push_back(pool.data(), 0);
  EXPECT_THROW(ring.push_back(pool.data(), 1), ContractViolation);
  EXPECT_THROW(TokenRing(0, 0), ContractViolation);
}

// ------------------------------------------------- fix_from_double guard

TEST(FixFromDouble, RejectsNonFiniteAndOutOfRange) {
  EXPECT_THROW(fix_from_double(std::nan("")), ContractViolation);
  EXPECT_THROW(fix_from_double(std::numeric_limits<double>::infinity()),
               ContractViolation);
  EXPECT_THROW(fix_from_double(32768.0), ContractViolation);
  EXPECT_THROW(fix_from_double(-32769.0), ContractViolation);
  EXPECT_NEAR(fix_to_double(fix_from_double(32767.5)), 32767.5, 1e-4);
  EXPECT_NEAR(fix_to_double(fix_from_double(-32768.0)), -32768.0, 1e-4);
}

// ------------------------------------------------- config validation

TEST(StreamValidation, RejectsDegenerateConfigs) {
  {
    StreamGraphConfig graph;
    graph.agc_period = 0;
    EXPECT_THROW(validate_graph_config(graph), ContractViolation);
  }
  {
    StreamGraphConfig graph;
    graph.fir.clear();
    EXPECT_THROW(validate_graph_config(graph), ContractViolation);
  }
  {
    StreamGraphConfig graph;
    graph.agc_target = std::nan("");
    EXPECT_THROW(validate_graph_config(graph), ContractViolation);
  }
  {
    StreamGraphConfig graph;
    graph.tokens = 0;
    EXPECT_THROW(validate_graph_config(graph), ContractViolation);
  }
  {
    StreamGraphConfig graph;
    graph.branches = 0;
    EXPECT_THROW(validate_graph_config(graph), ContractViolation);
  }
  {
    StreamGraphConfig graph;
    graph.agc_period = 0;
    EXPECT_THROW(make_stream_graph(graph), ContractViolation);
  }
}

// ------------------------------------------------------ sink retention

TEST(StreamSink, StatsOnlyIsObservationallyIdenticalToKeepAll) {
  StreamGraphConfig config;
  config.tokens = 600;
  config.agc_period = 8;

  config.sink.keep_samples = true;
  const SystemSpec keep_spec = make_stream_graph(config);
  GoldenSim keep_run(keep_spec, false);
  keep_run.run_until_halt(10000);
  const auto& keep =
      dynamic_cast<const StreamSink&>(keep_run.process("SNK0"));

  config.sink.keep_samples = false;
  config.sink.tail_window = 32;
  const SystemSpec stats_spec = make_stream_graph(config);
  GoldenSim stats_run(stats_spec, false);
  stats_run.run_until_halt(10000);
  const auto& stats =
      dynamic_cast<const StreamSink&>(stats_run.process("SNK0"));

  EXPECT_EQ(keep.count(), stats.count());
  EXPECT_EQ(keep.digest(), stats.digest());

  // The tail window is the keep-all suffix, oldest first.
  const std::vector<Word> tail = stats.tail();
  ASSERT_EQ(tail.size(), 32u);
  const std::vector<Word>& all = keep.samples();
  ASSERT_GE(all.size(), tail.size());
  for (std::size_t i = 0; i < tail.size(); ++i)
    EXPECT_EQ(tail[i], all[all.size() - tail.size() + i]) << i;

  // Stats-only mode refuses samples() instead of returning garbage.
  EXPECT_THROW(stats.samples(), ContractViolation);
}

TEST(StreamSink, ShortRunTailIsWholeStream) {
  SinkOptions options;
  options.keep_samples = false;
  options.tail_window = 16;
  StreamSink sink("s", 0, options);
  for (Word w = 1; w <= 5; ++w) {
    Word in[1] = {w};
    sink.fire(in, nullptr);  // the sink has no output ports
  }
  const std::vector<Word> tail = sink.tail();
  ASSERT_EQ(tail.size(), 5u);
  for (Word w = 1; w <= 5; ++w) EXPECT_EQ(tail[w - 1], w);
}

// ------------------------------------------------- differential suite

StreamGraphConfig small_graph(std::uint64_t tokens, std::size_t fir_stages,
                              std::size_t branches, std::uint64_t period,
                              int feedback_rs, int forward_rs) {
  StreamGraphConfig config;
  config.tokens = tokens;
  config.fir_stages = fir_stages;
  config.branches = branches;
  config.agc_period = period;
  config.feedback_rs = feedback_rs;
  config.forward_rs = forward_rs;
  config.sink.keep_samples = false;
  return config;
}

TEST(Harness, GoldenWp1Wp2BitIdenticalAcrossShapesAndDepths) {
  for (const std::uint64_t period : {4u, 16u}) {
    for (const int feedback_rs : {0, 2, 5}) {
      for (const auto& [fir_stages, branches, forward_rs] :
           {std::tuple<std::size_t, std::size_t, int>{1, 1, 0},
            std::tuple<std::size_t, std::size_t, int>{3, 2, 1}}) {
        const StreamGraphConfig config = small_graph(
            1500, fir_stages, branches, period, feedback_rs, forward_rs);
        const std::string what =
            "K=" + std::to_string(period) + " n=" +
            std::to_string(feedback_rs) + " fir=" +
            std::to_string(fir_stages) + " br=" + std::to_string(branches);

        HarnessOptions options;
        options.record_metrics = false;
        options.mode = RunMode::kGolden;
        const HarnessResult golden = run_stream_graph(config, options);
        options.mode = RunMode::kWp1;
        const HarnessResult wp1 = run_stream_graph(config, options);
        options.mode = RunMode::kWp2;
        const HarnessResult wp2 = run_stream_graph(config, options);

        ASSERT_EQ(golden.sink_digests.size(), branches) << what;
        EXPECT_EQ(golden.digest, wp1.digest) << what;
        EXPECT_EQ(golden.digest, wp2.digest) << what;
        EXPECT_EQ(golden.sink_digests, wp1.sink_digests) << what;
        EXPECT_EQ(golden.sink_digests, wp2.sink_digests) << what;
        for (const std::uint64_t count : wp2.sink_counts)
          EXPECT_EQ(count, config.tokens) << what;

        // The paper's amortization: WP2 never slower than WP1, and with
        // relay stations on the feedback loop, strictly faster.
        EXPECT_LE(wp2.cycles, wp1.cycles) << what;
        if (feedback_rs > 0) {
          EXPECT_LT(wp2.cycles, wp1.cycles) << what;
        }
      }
    }
  }
}

TEST(Harness, Wp2FollowsTheAmortizationLaw) {
  // K/(K+n) on the AGC loop: cycles ≈ tokens·(K+n)/K plus pipeline fill.
  const std::uint64_t tokens = 4000;
  const std::uint64_t period = 16;
  const int feedback_rs = 4;
  const StreamGraphConfig config =
      small_graph(tokens, 1, 1, period, feedback_rs, 0);
  HarnessOptions options;
  options.record_metrics = false;
  const HarnessResult wp2 = run_stream_graph(config, options);
  const double expected =
      static_cast<double>(tokens) * (period + feedback_rs) / period;
  EXPECT_GE(static_cast<double>(wp2.cycles), expected * 0.98);
  EXPECT_LE(static_cast<double>(wp2.cycles), expected * 1.05 + 256.0);
}

TEST(Harness, SinkRetentionModeDoesNotChangeTheStream) {
  StreamGraphConfig config = small_graph(800, 2, 1, 8, 1, 0);
  HarnessOptions options;
  options.record_metrics = false;
  config.sink.keep_samples = false;
  const HarnessResult stats = run_stream_graph(config, options);
  config.sink.keep_samples = true;
  const HarnessResult keep = run_stream_graph(config, options);
  EXPECT_EQ(stats.digest, keep.digest);
  EXPECT_EQ(stats.cycles, keep.cycles);
}

TEST(Harness, CycleBudgetExhaustionFailsLoudly) {
  const StreamGraphConfig config = small_graph(5000, 1, 1, 16, 2, 0);
  HarnessOptions options;
  options.record_metrics = false;
  options.max_cycles = 50;  // nowhere near enough for 5000 tokens
  EXPECT_THROW(run_stream_graph(config, options), ContractViolation);
  options.mode = RunMode::kGolden;
  EXPECT_THROW(run_stream_graph(config, options), ContractViolation);
}

TEST(Harness, EachStageTimerIsBoundToItsOwnStage) {
  const StreamGraphConfig config = small_graph(600, 2, 2, 8, 2, 1);
  HarnessOptions options;
  options.record_metrics = false;
  options.time_stages = true;
  for (const RunMode mode : {RunMode::kGolden, RunMode::kWp1, RunMode::kWp2}) {
    options.mode = mode;
    const HarnessResult result = run_stream_graph(config, options);
    ASSERT_EQ(result.stages.size(), 13u) << run_mode_name(mode);
    for (const StageLoad& stage : result.stages)
      EXPECT_EQ(stage.fire_count, stage.firings)
          << run_mode_name(mode) << " " << stage.name;
  }
}

TEST(Harness, FlushesTokenAndBackpressureCountersIntoTheRegistry) {
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t processed_before =
      registry.counter("stream/tokens/processed").value();

  const StreamGraphConfig config = small_graph(500, 1, 2, 8, 2, 0);
  HarnessOptions options;
  options.time_stages = true;
  const HarnessResult result = run_stream_graph(config, options);

  EXPECT_EQ(registry.counter("stream/tokens/processed").value(),
            processed_before + result.tokens);
  EXPECT_GT(registry.counter("stream/cycles").value(), 0u);

  // Per-stage latency histograms exist and saw every firing.
  bool timed = false;
  for (const auto& stage : result.stages) {
    const obs::Histogram& h =
        registry.histogram("stream/stage_fire_ns/" + stage.name);
    EXPECT_GE(h.count(), stage.firings);
    timed = timed || stage.fire_count > 0;
    if (stage.firings > 0) {
      EXPECT_GT(stage.fire_p99_ns, 0.0);
    }
  }
  EXPECT_TRUE(timed);
}

// ------------------------------------------------------- the wire layer

eval::StreamJob wire_job() {
  eval::StreamJob job;
  job.graph = small_graph(700, 2, 2, 8, 2, 1);
  job.mode = RunMode::kWp2;
  job.fifo_capacity = 8;
  return job;
}

TEST(StreamWire, RequestRoundTripPreservesEveryField) {
  const eval::EvalRequest request{wire_job()};
  wire::Writer w;
  request.encode(w);
  const std::string bytes = w.take();
  wire::Reader r(bytes);
  const eval::EvalRequest decoded = eval::EvalRequest::decode(r);

  ASSERT_EQ(decoded.kind, eval::RequestKind::kStreamRun);
  EXPECT_EQ(decoded.stream.graph.tokens, request.stream.graph.tokens);
  EXPECT_EQ(decoded.stream.graph.fir_stages, request.stream.graph.fir_stages);
  EXPECT_EQ(decoded.stream.graph.branches, request.stream.graph.branches);
  EXPECT_EQ(decoded.stream.graph.agc_period, request.stream.graph.agc_period);
  EXPECT_EQ(decoded.stream.graph.fir, request.stream.graph.fir);
  EXPECT_EQ(decoded.stream.graph.feedback_rs,
            request.stream.graph.feedback_rs);
  EXPECT_EQ(decoded.stream.graph.forward_rs, request.stream.graph.forward_rs);
  EXPECT_EQ(decoded.stream.mode, request.stream.mode);
  EXPECT_EQ(decoded.stream.fifo_capacity, request.stream.fifo_capacity);
  wire::Writer again;
  decoded.encode(again);
  EXPECT_EQ(again.take(), bytes);
}

TEST(StreamWire, ReplyRoundTripAndEqualityIgnoreWallClock) {
  eval::StreamResult result;
  result.tokens = 1400;
  result.cycles = 1620;
  result.digest = 0xdeadbeefcafef00dULL;
  result.sink_digests = {1, 2};
  result.sink_counts = {700, 700};
  result.input_stalls = 11;
  result.output_stalls = 7;
  result.discarded_tokens = 3;
  result.tokens_per_sec = 123456.0;
  const eval::EvalReply reply(std::move(result));

  wire::Writer w;
  reply.encode(w);
  const std::string bytes = w.take();
  wire::Reader r(bytes);
  const eval::EvalReply decoded = eval::EvalReply::decode(r);
  ASSERT_EQ(decoded.kind, eval::ReplyKind::kStream);
  EXPECT_TRUE(decoded.stream == reply.stream);
  EXPECT_DOUBLE_EQ(decoded.stream.tokens_per_sec, 123456.0);

  // Wall clock is reporting, not contract.
  eval::StreamResult other = reply.stream;
  other.tokens_per_sec = 1.0;
  EXPECT_TRUE(other == reply.stream);
  other.digest ^= 1;
  EXPECT_FALSE(other == reply.stream);
}

TEST(StreamWire, EvaluateMatchesDirectHarnessRun) {
  const eval::StreamJob job = wire_job();
  const eval::EvalReply reply = eval::evaluate(eval::EvalRequest{job}, {});
  ASSERT_TRUE(reply.ok()) << reply.error.message;
  const eval::StreamResult& remote = eval::unwrap_stream(reply);

  StreamGraphConfig config = job.graph;
  config.sink.keep_samples = false;
  HarnessOptions options;
  options.mode = job.mode;
  options.fifo_capacity = static_cast<std::size_t>(job.fifo_capacity);
  const HarnessResult local = run_stream_graph(config, options);
  EXPECT_EQ(remote.digest, local.digest);
  EXPECT_EQ(remote.cycles, local.cycles);
  EXPECT_EQ(remote.sink_digests, local.sink_digests);
}

TEST(StreamWire, InvalidGraphBecomesTypedErrorNotThrow) {
  eval::StreamJob job = wire_job();
  job.graph.agc_period = 0;  // rejected at validation
  const eval::EvalReply reply = eval::evaluate(eval::EvalRequest{job}, {});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error.code, eval::ErrorCode::kEvalFailed);
  EXPECT_NE(reply.error.message.find("AGC period"), std::string::npos)
      << reply.error.message;
}

// ------------------------------------------------------ the remote path

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/wp_stream_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

svc::EvalServerOptions test_server_options() {
  svc::EvalServerOptions options;
  options.socket_path = unique_socket_path();
  options.workers = 2;
  return options;
}

std::vector<eval::EvalRequest> stream_batch() {
  std::vector<eval::EvalRequest> requests;
  for (const int feedback_rs : {0, 2}) {
    for (const auto mode : {RunMode::kWp1, RunMode::kWp2}) {
      eval::StreamJob job;
      job.graph = small_graph(600, 2, 2, 8, feedback_rs, 0);
      job.mode = mode;
      requests.emplace_back(std::move(job));
    }
  }
  return requests;
}

TEST(StreamRemote, ServedStreamIsByteIdenticalToInProcess) {
  svc::EvalServer server(test_server_options());
  server.start();

  const std::vector<eval::EvalRequest> requests = stream_batch();
  svc::EvalClient client;
  client.connect(server.socket_path());
  const std::vector<eval::EvalReply> remote = client.evaluate(requests);
  const std::vector<eval::EvalReply> local =
      eval::evaluate_batch(requests, {});

  ASSERT_EQ(remote.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(remote[i].ok()) << remote[i].error.message;
    EXPECT_TRUE(eval::unwrap_stream(remote[i]) ==
                eval::unwrap_stream(local[i]))
        << "request " << i;
  }

  // The daemon's stats scrape exposes the stream metrics the harness
  // flushed — backpressure and token counters visible remotely.
  const std::string stats = client.stats_json();
  EXPECT_NE(stats.find("stream/tokens/processed"), std::string::npos);
  EXPECT_NE(stats.find("stream/backpressure/input_stalls"),
            std::string::npos);

  client.close();
  server.stop();
}

TEST(StreamRemote, ShardedAcrossTwoServersMergesByteIdentical) {
  svc::EvalServer server_a(test_server_options());
  svc::EvalServer server_b(test_server_options());
  server_a.start();
  server_b.start();

  svc::EvalClient client_a, client_b;
  client_a.connect(server_a.socket_path());
  client_b.connect(server_b.socket_path());

  const std::vector<eval::EvalRequest> requests = stream_batch();
  const std::vector<eval::EvalReply> sharded =
      svc::evaluate_sharded({&client_a, &client_b}, requests);
  const std::vector<eval::EvalReply> local =
      eval::evaluate_batch(requests, {});

  ASSERT_EQ(sharded.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(sharded[i].ok()) << sharded[i].error.message;
    EXPECT_TRUE(eval::unwrap_stream(sharded[i]) ==
                eval::unwrap_stream(local[i]))
        << "request " << i;
  }

  client_a.close();
  client_b.close();
  server_a.stop();
  server_b.stop();
}

}  // namespace
}  // namespace wp::stream
