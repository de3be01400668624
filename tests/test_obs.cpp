// Observability suite: the metrics registry (lock-free recording from many
// threads, log₂-bucket percentiles, deterministic sorted export, reset
// keeping cached references valid), span tracing (runtime gating, tiny-ring
// wraparound with a dropped counter, chrome-trace export that parses as
// JSON), the JsonWriter/Value round trip including NaN/Inf → null, the
// bench_diff regression gate (a 30% slower path must fail on its *_speedup
// ratio, identical runs and any millisecond drift must pass), and the
// kStatsRequest scrape against a live in-process EvalServer — including
// the adversarial payload-carrying scrape which must cost one kError
// frame, not the connection, and a registry that mirrors none of the
// per-server or golden-cache counts the scrape's own sections carry.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/bench_diff.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/eval_client.hpp"
#include "svc/eval_server.hpp"
#include "svc/protocol.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace wp::obs {
namespace {

// -------------------------------------------------------------- registry

TEST(Metrics, CounterGaugeHistogramBasics) {
  Registry registry;
  Counter& c = registry.counter("t/count");
  c.inc();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);

  Gauge& g = registry.gauge("t/depth");
  g.set(5);
  g.set(-3);
  EXPECT_EQ(g.value(), -3);

  Histogram& h = registry.histogram("t/lat_ns");
  h.record(0);
  h.record(1);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1001u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1001.0 / 3.0);

  // Same name → same object; registration is idempotent.
  EXPECT_EQ(&registry.counter("t/count"), &c);
  EXPECT_EQ(&registry.histogram("t/lat_ns"), &h);
}

TEST(Metrics, HistogramPercentilesAreOctaveAccurate) {
  Histogram h;
  // 100 values in [1024, 2048): all land in one log₂ bucket.
  for (std::uint64_t i = 0; i < 100; ++i) h.record(1024 + i * 10);
  const double p50 = h.percentile(50.0);
  const double p99 = h.percentile(99.0);
  EXPECT_GE(p50, 1024.0);
  EXPECT_LE(p50, 2048.0);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 2048.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1024.0);
}

TEST(Metrics, ConcurrentRecordingLosesNothing) {
  Registry registry;
  Counter& hits = registry.counter("t/hits");
  Histogram& lat = registry.histogram("t/lat_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hits.inc();
        lat.record(static_cast<std::uint64_t>(t * kPerThread + i));
      }
    });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(hits.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(lat.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Metrics, PoolTasksFeedTheGlobalRegistry) {
  // The pool's instrumentation: running tasks must bump
  // util/pool/tasks and record into the wait/run histograms.
  Registry& registry = Registry::global();
  const std::uint64_t tasks_before =
      registry.counter("util/pool/tasks").value();
  const std::uint64_t runs_before =
      registry.histogram("util/pool/task_run_ns").count();

  {
    // A worker records task_run_ns after the task has fulfilled its
    // future, so f.get() alone can observe the count one short. Every
    // pool feeds the same global metrics; joining a private pool's
    // workers makes all 16 recordings visible.
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 16; ++i)
      futures.push_back(pool.submit([i] { return i; }));
    for (auto& f : futures) f.get();
  }

  EXPECT_GE(registry.counter("util/pool/tasks").value(), tasks_before + 16);
  EXPECT_GE(registry.histogram("util/pool/task_run_ns").count(),
            runs_before + 16);
}

TEST(Metrics, ExportIsDeterministicAndSorted) {
  Registry registry;
  // Register out of order; the snapshot and JSON must sort by name.
  registry.counter("z/last").add(1);
  registry.counter("a/first").add(2);
  registry.gauge("m/mid").set(-7);
  registry.histogram("h/lat_ns").record(42);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a/first");
  EXPECT_EQ(snap.counters[1].first, "z/last");

  auto to_json = [&registry] {
    std::ostringstream os;
    json::JsonWriter json(os);
    registry.write_json(json);
    return os.str();
  };
  const std::string a = to_json();
  const std::string b = to_json();
  EXPECT_EQ(a, b);  // byte-stable under no concurrent recording

  // And it parses back with the same numbers.
  const json::Value doc = json::Value::parse(a);
  const json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("a/first"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("a/first")->as_double(), 2.0);
  const json::Value* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("m/mid")->as_double(), -7.0);
  const json::Value* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* lat = hists->find("h/lat_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->find("count")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(lat->find("max")->as_double(), 42.0);
}

TEST(Metrics, ResetAllKeepsCachedReferencesValid) {
  Registry registry;
  Counter& c = registry.counter("t/count");
  Histogram& h = registry.histogram("t/lat_ns");
  c.add(5);
  h.record(9);
  registry.reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc();  // the reference recorded into the same registered object
  EXPECT_EQ(registry.counter("t/count").value(), 1u);
}

// --------------------------------------------------------------- tracing

/// Names of the spans a chrome-trace export holds, in export order.
std::vector<std::string> exported_span_names(const Tracer& tracer) {
  std::ostringstream os;
  tracer.export_chrome_trace(os);
  const json::Value doc = json::Value::parse(os.str());
  const json::Value* events = doc.find("traceEvents");
  std::vector<std::string> names;
  for (std::size_t i = 0; i < events->size(); ++i)
    names.push_back(events->at(i).find("name")->as_string());
  return names;
}

TEST(Trace, SpansRecordOnlyWhileEnabled) {
  Tracer& tracer = Tracer::global();
  tracer.disable();
  tracer.clear();
  { WP_SPAN("test/ignored"); }
  EXPECT_TRUE(exported_span_names(tracer).empty());

  tracer.enable(64);
  { WP_SPAN("test/outer"); { WP_SPAN("test/inner"); } }
  tracer.disable();
#if WP_OBS_TRACING
  EXPECT_EQ(exported_span_names(tracer).size(), 2u);
#else
  EXPECT_TRUE(exported_span_names(tracer).empty());
#endif
  tracer.clear();
}

#if WP_OBS_TRACING
TEST(Trace, TinyRingWrapsAroundAndCountsDrops) {
  Tracer& tracer = Tracer::global();
  tracer.disable();
  tracer.clear();
  tracer.enable(/*ring_capacity=*/8);
  static const char* const kNames[20] = {
      "w0",  "w1",  "w2",  "w3",  "w4",  "w5",  "w6",  "w7",  "w8",  "w9",
      "w10", "w11", "w12", "w13", "w14", "w15", "w16", "w17", "w18", "w19"};
  for (const char* name : kNames) { WP_SPAN(name); }
  tracer.disable();
  // The ring holds only the newest 8, oldest first; the other 12 were
  // overwritten.
  const std::vector<std::string> expected = {"w12", "w13", "w14", "w15",
                                             "w16", "w17", "w18", "w19"};
  EXPECT_EQ(exported_span_names(tracer), expected);
  tracer.clear();
}

TEST(Trace, ChromeExportIsValidJsonWithOneEventPerSpan) {
  Tracer& tracer = Tracer::global();
  tracer.disable();
  tracer.clear();
  tracer.enable(64);
  { WP_SPAN("test/a"); }
  { WP_SPAN("test/b"); }
  tracer.disable();

  std::ostringstream os;
  tracer.export_chrome_trace(os);
  const json::Value doc = json::Value::parse(os.str());
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 2u);
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = events->at(i);
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_GE(e.find("dur")->as_double(), 0.0);
    const std::string name = e.find("name")->as_string();
    EXPECT_TRUE(name == "test/a" || name == "test/b") << name;
  }
  tracer.clear();
}
#endif  // WP_OBS_TRACING

// ------------------------------------------------------------ JSON layer

TEST(Json, NonFiniteDoublesEmitNull) {
  std::ostringstream os;
  json::JsonWriter json(os);
  json.begin_object();
  json.field("nan", std::numeric_limits<double>::quiet_NaN());
  json.field("inf", std::numeric_limits<double>::infinity());
  json.field("ninf", -std::numeric_limits<double>::infinity());
  json.field("fine", 1.5);
  json.end_object();

  const json::Value doc = json::Value::parse(os.str());
  EXPECT_EQ(doc.find("nan")->kind(), json::Value::Kind::kNull);
  EXPECT_EQ(doc.find("inf")->kind(), json::Value::Kind::kNull);
  EXPECT_EQ(doc.find("ninf")->kind(), json::Value::Kind::kNull);
  EXPECT_DOUBLE_EQ(doc.find("fine")->as_double(), 1.5);
}

TEST(Json, WriterOutputRoundTripsThroughParser) {
  std::ostringstream os;
  json::JsonWriter json(os);
  json.begin_object();
  json.field("text", "quote \" backslash \\ newline \n");
  json.field("count", 12345678901234ull);
  json.field("neg", -42);
  json.field("flag", true);
  json.key("list").begin_array();
  json.value(1.25).null_value().value("x");
  json.end_array();
  json.end_object();

  const json::Value doc = json::Value::parse(os.str());
  EXPECT_EQ(doc.find("text")->as_string(), "quote \" backslash \\ newline \n");
  EXPECT_DOUBLE_EQ(doc.find("count")->as_double(), 12345678901234.0);
  EXPECT_DOUBLE_EQ(doc.find("neg")->as_double(), -42.0);
  EXPECT_TRUE(doc.find("flag")->as_bool());
  const json::Value* list = doc.find("list");
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ(list->at(1).kind(), json::Value::Kind::kNull);
  EXPECT_EQ(list->at(2).as_string(), "x");
}

TEST(Json, ParserRejectsTrailingGarbage) {
  EXPECT_THROW(json::Value::parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::Value::parse("[1, 2"), json::ParseError);
  EXPECT_THROW(json::Value::parse("NaN"), json::ParseError);
}

// ------------------------------------------------------------ bench_diff

TEST(BenchDiff, OnlyTheSpeedupSuffixGates) {
  EXPECT_TRUE(is_gated("anneal_speedup"));
  EXPECT_TRUE(is_gated("throughput_eval_speedup"));
  EXPECT_FALSE(is_gated("anneal_ms"));
  EXPECT_FALSE(is_gated("evals_per_min"));
  EXPECT_FALSE(is_gated("cache_hit_rate"));
  EXPECT_FALSE(is_gated("speedup_ms"));
  EXPECT_FALSE(is_gated("speedups"));
  EXPECT_FALSE(is_gated("_speedu"));
}

TEST(BenchDiff, IdenticalRunsPass) {
  const std::string doc =
      "{\"anneal_ms\": 120.0, \"pack_fast_speedup\": 3.5, "
      "\"area_mean\": 900.0}";
  const BenchDiffReport report =
      diff_benchmarks(json::Value::parse(doc), json::Value::parse(doc));
  EXPECT_TRUE(report.pass());
  EXPECT_EQ(report.regressions(), 0u);
  EXPECT_EQ(report.deltas.size(), 3u);
}

TEST(BenchDiff, InjectedSlowdownOverThresholdFails) {
  // The code path got 30% slower against its reference: the ratio falls
  // to 4.0 / 1.3, which is a 30% regression, over the 25% gate.
  const json::Value baseline = json::Value::parse(
      "{\"pack_fast_speedup\": 4.0, \"area_mean\": 900.0}");
  std::ostringstream slower;
  slower.precision(17);
  slower << "{\"pack_fast_speedup\": " << 4.0 / 1.3
         << ", \"area_mean\": 900.0}";
  const BenchDiffReport report =
      diff_benchmarks(baseline, json::Value::parse(slower.str()));
  EXPECT_FALSE(report.pass());
  ASSERT_EQ(report.regressions(), 1u);
  for (const MetricDelta& d : report.deltas)
    if (d.regression) {
      EXPECT_EQ(d.path, "pack_fast_speedup");
      EXPECT_NEAR(d.baseline / d.fresh - 1.0, 0.30, 1e-9);
    }
  // 20% slower stays under the gate.
  std::ostringstream mild;
  mild.precision(17);
  mild << "{\"pack_fast_speedup\": " << 4.0 / 1.2 << "}";
  EXPECT_TRUE(
      diff_benchmarks(json::Value::parse("{\"pack_fast_speedup\": 4.0}"),
                      json::Value::parse(mild.str()))
          .pass());
}

TEST(BenchDiff, SpeedupDropFailsAndSpeedupGainPasses) {
  const json::Value baseline =
      json::Value::parse("{\"anneal_speedup\": 4.0}");
  EXPECT_FALSE(diff_benchmarks(baseline,
                               json::Value::parse("{\"anneal_speedup\": 2.0}"))
                   .pass());
  EXPECT_TRUE(diff_benchmarks(baseline,
                              json::Value::parse("{\"anneal_speedup\": 8.0}"))
                  .pass());
}

TEST(BenchDiff, MissingMetricInFreshFailsTheGate) {
  const BenchDiffReport report = diff_benchmarks(
      json::Value::parse("{\"anneal_ms\": 100.0, \"gone_speedup\": 5.0}"),
      json::Value::parse("{\"anneal_ms\": 100.0, \"new_speedup\": 9.0}"));
  EXPECT_FALSE(report.pass());
  EXPECT_EQ(report.regressions(), 0u);
  ASSERT_EQ(report.missing_in_fresh.size(), 1u);
  EXPECT_EQ(report.missing_in_fresh[0], "gone_speedup");
  ASSERT_EQ(report.missing_in_baseline.size(), 1u);
  EXPECT_EQ(report.missing_in_baseline[0], "new_speedup");
}

TEST(BenchDiff, InformationalDriftNeverFails) {
  // Milliseconds measure the host: a 10x slower *_ms leaf is reported
  // and passes, like any other non-ratio drift.
  const BenchDiffReport report = diff_benchmarks(
      json::Value::parse("{\"anneal_ms\": 100.0, \"area_mean\": 100.0}"),
      json::Value::parse("{\"anneal_ms\": 1000.0, \"area_mean\": 900.0}"));
  EXPECT_TRUE(report.pass());
  ASSERT_EQ(report.deltas.size(), 2u);
  for (const MetricDelta& d : report.deltas) {
    EXPECT_FALSE(d.gated);
    EXPECT_FALSE(d.regression);
  }
}

TEST(BenchDiff, NestedArraysAndObjectsKeepTheirPaths) {
  const json::Value baseline = json::Value::parse(
      "{\"anneal\": [{\"anneal_speedup\": 10.0}, "
      "{\"anneal_speedup\": 20.0}]}");
  const json::Value fresh = json::Value::parse(
      "{\"anneal\": [{\"anneal_speedup\": 10.0}, "
      "{\"anneal_speedup\": 10.0}]}");
  const BenchDiffReport report = diff_benchmarks(baseline, fresh);
  EXPECT_FALSE(report.pass());
  ASSERT_EQ(report.regressions(), 1u);
  for (const MetricDelta& d : report.deltas)
    if (d.regression) {
      EXPECT_EQ(d.path, "anneal[1].anneal_speedup");
    }
}

TEST(BenchDiff, ReportJsonParsesAndCarriesTheVerdict) {
  const BenchDiffReport report =
      diff_benchmarks(json::Value::parse("{\"pack_fast_speedup\": 4.0}"),
                      json::Value::parse("{\"pack_fast_speedup\": 2.0}"));
  std::ostringstream os;
  json::JsonWriter json(os);
  write_diff_report(report, json);
  const json::Value doc = json::Value::parse(os.str());
  EXPECT_EQ(doc.find("schema")->as_string(), "wirepipe-bench-diff/2");
  EXPECT_FALSE(doc.find("pass")->as_bool());
  EXPECT_DOUBLE_EQ(doc.find("regressions")->as_double(), 1.0);
}

// ------------------------------------------------------------ stats scrape

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/wp_obs_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

svc::EvalServerOptions test_server_options() {
  svc::EvalServerOptions options;
  options.socket_path = unique_socket_path();
  options.workers = 2;
  return options;
}

TEST(StatsScrape, LiveServerAnswersWithParsableStatsDocument) {
  svc::EvalServer server(test_server_options());
  server.start();

  svc::EvalClient client;
  client.connect(server.socket_path());
  const std::string stats = client.stats_json();
  const json::Value doc = json::Value::parse(stats);
  EXPECT_EQ(doc.find("schema")->as_string(), "wirepipe-stats/1");
  const json::Value* srv = doc.find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_DOUBLE_EQ(srv->find("workers")->as_double(), 2.0);
  // The scrape itself is a frame, so the server has seen at least one.
  EXPECT_GE(srv->find("frames")->as_double(), 1.0);
  const json::Value* golden_cache = doc.find("golden_cache");
  ASSERT_NE(golden_cache, nullptr);
  std::set<std::string> golden_keys;
  for (const auto& [key, value] : golden_cache->members()) {
    EXPECT_EQ(value.kind(), json::Value::Kind::kNumber) << key;
    golden_keys.insert(key);
  }
  EXPECT_EQ(golden_keys,
            (std::set<std::string>{"hits", "misses", "golden_runs",
                                   "evictions", "entries"}));
  // The full registry rides along (pool metrics are always registered by
  // the server's own worker pool).
  const json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("counters"), nullptr);

  // The connection still evaluates after a scrape.
  EXPECT_TRUE(client.ping());
  client.close();
  server.stop();
}

TEST(StatsScrape, ScrapeReflectsServedRequests) {
  svc::EvalServer server(test_server_options());
  server.start();

  svc::EvalClient client;
  client.connect(server.socket_path());
  std::vector<eval::EvalRequest> requests;
  for (int i = 0; i < 3; ++i) {
    eval::FloorplanJob job;
    job.topology.family = gen::TopologyFamily::kMesh;
    job.topology.num_nodes = 9;
    job.seed = 70 + static_cast<std::uint64_t>(i);
    job.anneal.iterations = 12;
    requests.emplace_back(std::move(job));
  }
  client.evaluate(requests);

  const json::Value doc = json::Value::parse(client.stats_json());
  EXPECT_DOUBLE_EQ(doc.find("server")->find("requests")->as_double(), 3.0);
  client.close();
  server.stop();
}

TEST(StatsScrape, PerServerCountsLiveOnlyInTheServerSection) {
  // The server section is EvalServer::Stats; the registry keeps no mirror
  // of those counts, only the batch histogram and the scrape count.
  svc::EvalServer server(test_server_options());
  server.start();
  svc::EvalClient client;
  client.connect(server.socket_path());
  eval::FloorplanJob job;
  job.topology.family = gen::TopologyFamily::kMesh;
  job.topology.num_nodes = 9;
  job.anneal.iterations = 12;
  client.evaluate({eval::EvalRequest(job)});

  const json::Value doc = json::Value::parse(client.stats_json());
  const json::Value* counters = doc.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  for (const char* name :
       {"svc/server/connections", "svc/server/frames", "svc/server/requests",
        "svc/server/error_frames", "svc/server/dropped_connections"})
    EXPECT_EQ(counters->find(name), nullptr) << name;
  EXPECT_NE(counters->find("svc/server/stats_scrapes"), nullptr);
  EXPECT_NE(doc.find("metrics")->find("histograms")->find(
                "svc/server/batch_ns"),
            nullptr);
  EXPECT_DOUBLE_EQ(doc.find("server")->find("requests")->as_double(), 1.0);
  client.close();
  server.stop();
}

TEST(StatsScrape, GoldenCacheCountsLiveOnlyInTheGoldenCacheSection) {
  // GoldenCache::Stats is the one home of the cache's counts: the scrape's
  // golden_cache section reports them and the registry keeps no mirror.
  svc::EvalServer server(test_server_options());
  server.start();
  svc::EvalClient client;
  client.connect(server.socket_path());
  eval::ExperimentJob job;
  job.program = eval::ProgramRef::extraction_sort(8, 5);
  job.rs = {"Only RF-DC", {{"RF-DC", 1}}};
  client.evaluate({eval::EvalRequest(job)});
  client.evaluate({eval::EvalRequest(job)});

  const json::Value doc = json::Value::parse(client.stats_json());
  const json::Value* golden_cache = doc.find("golden_cache");
  ASSERT_NE(golden_cache, nullptr);
  EXPECT_DOUBLE_EQ(golden_cache->find("misses")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(golden_cache->find("golden_runs")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(golden_cache->find("hits")->as_double(), 1.0);
  const json::Value* counters = doc.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  for (const auto& [name, value] : counters->members())
    EXPECT_NE(name.rfind("sim/", 0), 0u) << name;
  std::set<std::string> sections;
  for (const auto& [key, value] : doc.members()) sections.insert(key);
  EXPECT_EQ(sections, (std::set<std::string>{"schema", "server",
                                             "golden_cache", "metrics"}));
  client.close();
  server.stop();
}

TEST(StatsScrape, PayloadCarryingScrapeCostsOneErrorFrameNotTheConnection) {
  svc::EvalServer server(test_server_options());
  server.start();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server.socket_path().c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  // A kStatsRequest must be empty; a payload is a malformed request.
  svc::write_frame(fd, svc::FrameType::kStatsRequest, "unexpected");
  auto reply = svc::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, svc::FrameType::kError);
  EXPECT_EQ(svc::decode_payload<eval::EvalError>(reply->payload).code,
            eval::ErrorCode::kMalformedRequest);

  // Same connection, well-formed scrape: still served.
  svc::write_frame(fd, svc::FrameType::kStatsRequest, "");
  auto good = svc::read_frame(fd);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->type, svc::FrameType::kStatsReply);
  EXPECT_EQ(json::Value::parse(good->payload).find("schema")->as_string(),
            "wirepipe-stats/1");

  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().dropped_connections, 0u);
  EXPECT_GE(server.stats().error_frames, 1u);
}

TEST(StatsScrape, FrameCodecRoundTripsTheNewTypes) {
  const std::string request =
      svc::encode_frame(svc::FrameType::kStatsRequest, "");
  const svc::Frame decoded_request =
      svc::decode_frame(request.data(), request.size());
  EXPECT_EQ(decoded_request.type, svc::FrameType::kStatsRequest);
  EXPECT_TRUE(decoded_request.payload.empty());

  const std::string reply_payload = "{\"schema\": \"wirepipe-stats/1\"}";
  const std::string reply =
      svc::encode_frame(svc::FrameType::kStatsReply, reply_payload);
  const svc::Frame decoded_reply =
      svc::decode_frame(reply.data(), reply.size());
  EXPECT_EQ(decoded_reply.type, svc::FrameType::kStatsReply);
  EXPECT_EQ(decoded_reply.payload, reply_payload);
}

}  // namespace
}  // namespace wp::obs
