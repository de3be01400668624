// EvalRequest/EvalReply API suite: wire primitive round trips and
// truncation behavior, per-kind request/reply serialize→deserialize
// identity against pinned wire images, canonical decode (seeded byte
// mutations either fail with WireError or re-encode to the mutated bytes;
// out-of-range ints, unordered rs maps and program generator tag 0 are
// rejected), the tagged-union messages (sizes within budget, copy and move
// across every pair of kinds, a decode that throws after the kind tag,
// `kind` not assignable), the evaluator guarantee (evaluate()'s
// experiment, throughput and ensemble-sample replies on generator refs are
// bit-identical to direct SimOracle / run_sample_job calls), and error
// containment in eval::evaluate.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/shell.hpp"
#include "eval/evaluate.hpp"
#include "floorplan/annealer.hpp"
#include "eval/request.hpp"
#include "gen/ensemble.hpp"
#include "graph/throughput_engine.hpp"
#include "proc/experiment.hpp"
#include "proc/programs.hpp"
#include "sim/oracle.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/wire.hpp"

namespace wp::eval {
namespace {

// ---------------------------------------------------------------- wire

TEST(Wire, PrimitiveRoundTrip) {
  wire::Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.b(true);
  w.b(false);
  w.f64(3.14159265358979);
  w.str("hello");
  w.str("");

  const std::string bytes = w.take();
  wire::Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159265358979);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Wire, TruncationThrows) {
  wire::Writer w;
  w.u64(7);
  const std::string bytes = w.take();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    wire::Reader r(bytes.data(), cut);
    EXPECT_THROW(r.u64(), wire::WireError) << "cut at " << cut;
  }
}

TEST(Wire, StringLengthBeyondBufferThrows) {
  wire::Writer w;
  w.u32(1000);  // claims 1000 bytes follow
  w.raw("abc", 3);
  const std::string bytes = w.take();
  wire::Reader r(bytes);
  EXPECT_THROW(r.str(), wire::WireError);
}

TEST(Wire, RawReadsVerbatimWithinBounds) {
  wire::Writer w;
  w.raw("abc\0ef", 6);
  const std::string bytes = w.take();
  wire::Reader r(bytes);
  EXPECT_EQ(r.raw(4), std::string("abc\0", 4));
  EXPECT_THROW(r.raw(3), wire::WireError);  // only 2 bytes remain
  EXPECT_EQ(r.raw(2), "ef");                // a failed read consumes nothing
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Wire, TrailingGarbageDetected) {
  wire::Writer w;
  w.u32(1);
  w.u8(0);  // one extra byte
  const std::string bytes = w.take();
  wire::Reader r(bytes);
  r.u32();
  EXPECT_THROW(r.expect_done(), wire::WireError);
}

TEST(Wire, NonCanonicalBoolThrows) {
  wire::Writer w;
  w.u8(2);
  const std::string bytes = w.take();
  wire::Reader r(bytes);
  EXPECT_THROW(r.b(), wire::WireError);
}

// ------------------------------------------------- request round trips

EvalRequest sample_experiment_request() {
  ExperimentJob job;
  job.program = ProgramRef::extraction_sort(12, 9);
  job.cpu.fetch_window = 3;
  job.rs.label = "test-config";
  job.rs.rs = {{"CU-RF", 1}, {"RF-ALU", 2}};
  job.options.max_cycles = 5000;
  job.options.fifo_capacity = 8;
  return EvalRequest(std::move(job));
}

EvalRequest sample_throughput_request() {
  ThroughputJob job;
  job.program = ProgramRef::matmul(3, 5);
  job.rs = {{"CU-IC", 1}};
  job.fifo_capacity = 4;
  return EvalRequest(std::move(job));
}

EvalRequest sample_floorplan_request() {
  FloorplanJob job;
  job.topology.family = gen::TopologyFamily::kMesh;
  job.topology.num_nodes = 9;
  job.seed = 77;
  job.anneal.iterations = 16;
  job.anneal.weight_throughput = 25.0;
  return EvalRequest(std::move(job));
}

EvalRequest sample_ensemble_request() {
  gen::SampleJob job;
  job.family.name = "ws-16";
  job.family.topology.family = gen::TopologyFamily::kWattsStrogatz;
  job.family.topology.num_nodes = 16;
  job.family.anneal_iterations = 80;
  job.sample = 3;
  job.ensemble_seed = 21;
  job.simulate.enabled = true;
  job.simulate.golden_cycles = 32;
  job.simulate.wp_cycles = 128;
  job.anneal.iterations = 200;
  return EvalRequest(job);
}

EvalRequest sample_stream_request() {
  StreamJob job;
  job.graph.tokens = 900;
  job.graph.fir_stages = 2;
  job.graph.branches = 2;
  job.graph.agc_period = 8;
  job.graph.agc_target = 0.5;
  job.graph.seed = 11;
  job.graph.fir = {0.125, 0.75, 0.125};
  job.graph.feedback_rs = 2;
  job.graph.forward_rs = 1;
  job.mode = stream::RunMode::kWp2;
  job.fifo_capacity = 8;
  return EvalRequest(std::move(job));
}

/// One request per kind, in RequestKind order.
std::vector<EvalRequest> request_fixtures() {
  return {sample_experiment_request(), sample_throughput_request(),
          sample_floorplan_request(), sample_ensemble_request(),
          sample_stream_request()};
}

std::string encoded(const EvalRequest& request) {
  wire::Writer w;
  request.encode(w);
  return w.take();
}

std::uint64_t image_hash(const std::string& bytes) {
  return hash_bytes(bytes.data(), bytes.size());
}

TEST(EvalRequestWire, RoundTripIdentityPerKind) {
  // hash_bytes of each fixture's wire image, in request_fixtures() order.
  // These pin the kEvalVersion 5 layout: a change here is a wire-format
  // change and must bump kEvalVersion.
  const std::vector<std::uint64_t> pinned = {
      0x00e7922c733ebb4bULL, 0x63adb2b7a6199a18ULL,
      0x4cdbf0b691e05fefULL, 0xbf475edc31d9b4b3ULL,
      0x3c09d277373af545ULL};
  const std::vector<EvalRequest> requests = request_fixtures();
  ASSERT_EQ(requests.size(), pinned.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const EvalRequest& request = requests[i];
    const std::string bytes = encoded(request);
    EXPECT_EQ(image_hash(bytes), pinned[i]) << request_kind_name(request.kind);
    wire::Reader r(bytes);
    const EvalRequest decoded = EvalRequest::decode(r);
    EXPECT_NO_THROW(r.expect_done());
    EXPECT_EQ(decoded.kind, request.kind);
    // decode∘encode must be the identity on the wire image.
    EXPECT_EQ(encoded(decoded), bytes)
        << request_kind_name(request.kind);
  }
}

TEST(EvalRequestWire, ProgramGeneratorTagZeroRejected) {
  // Byte 2 of an experiment request is its program generator tag, after
  // the version and kind bytes. Tag 0 names no generator: no encoder
  // writes it and the decoder refuses it (svc's
  // EvalServer.GeneratorTagZeroIsMalformedRequest sends such an image to a
  // live server).
  std::string bytes = encoded(sample_experiment_request());
  ASSERT_EQ(bytes[2], static_cast<char>(
                          ProgramRef::Generator::kExtractionSort));
  bytes[2] = 0;
  wire::Reader r(bytes);
  EXPECT_THROW(EvalRequest::decode(r), wire::WireError);

  ExperimentJob job;
  job.program.generator = ProgramRef::Generator{};
  wire::Writer w;
  EXPECT_THROW(EvalRequest(std::move(job)).encode(w), wire::WireError);
}

TEST(EvalRequestWire, ForeignVersionRejected) {
  std::string bytes = encoded(sample_floorplan_request());
  bytes[0] = static_cast<char>(kEvalVersion + 1);
  wire::Reader r(bytes);
  EXPECT_THROW(EvalRequest::decode(r), wire::WireError);
}

TEST(EvalRequestWire, RetiredPackEngineTagsRejected) {
  // Locate the engine tag as the one byte where a naive-engine request
  // and a MovePacker request differ, then plant each retired tag there.
  EvalRequest naive = sample_floorplan_request();
  naive.floorplan.anneal.pack_engine = fplan::PackEngine::kNaive;
  const std::string reference = encoded(naive);
  const std::string packer = encoded(sample_floorplan_request());
  ASSERT_EQ(reference.size(), packer.size());
  std::size_t tag = reference.size();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i] == packer[i]) continue;
    ASSERT_EQ(tag, reference.size()) << "more than one byte differs";
    tag = i;
  }
  ASSERT_LT(tag, reference.size());
  EXPECT_EQ(static_cast<std::uint8_t>(packer[tag]), 1u);
  for (const std::uint8_t retired : {2, 3, 255}) {
    std::string bytes = packer;
    bytes[tag] = static_cast<char>(retired);
    wire::Reader r(bytes);
    EXPECT_THROW(EvalRequest::decode(r), wire::WireError)
        << "tag " << static_cast<int>(retired);
  }
}

TEST(EvalRequestWire, TruncatedRequestRejected) {
  const std::string bytes = encoded(sample_ensemble_request());
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    wire::Reader r(bytes.data(), cut);
    EXPECT_THROW(EvalRequest::decode(r), wire::WireError);
  }
}

/// One reply per kind, in ReplyKind order.
std::vector<EvalReply> reply_fixtures() {
  std::vector<EvalReply> replies;
  replies.push_back(EvalReply::make_error(ErrorCode::kEvalFailed, "boom"));
  {
    proc::ExperimentRow row;
    row.label = "row";
    row.golden_cycles = 123;
    row.th_wp2 = 0.75;
    row.wp1_equivalent = false;
    row.detail = "detail text";
    replies.emplace_back(std::move(row));
  }
  replies.emplace_back(0.625);
  {
    FloorplanResult floorplan;
    floorplan.area = 12.5;
    floorplan.total_rs = 7;
    floorplan.engine_incremental = 99;
    replies.emplace_back(floorplan);
  }
  {
    gen::SampleResult sample;
    sample.family = "mesh-9";
    sample.sample = 2;
    sample.throughput = 0.5;
    sample.anneal_ms = 3.25;  // timings ride the wire too
    replies.emplace_back(std::move(sample));
  }
  {
    StreamResult stream;
    stream.tokens = 1400;
    stream.cycles = 1620;
    stream.digest = 0xdeadbeefcafef00dULL;
    stream.sink_digests = {1, 2};
    stream.sink_counts = {700, 700};
    stream.input_stalls = 11;
    stream.discarded_tokens = 3;
    stream.tokens_per_sec = 123456.0;
    replies.emplace_back(std::move(stream));
  }
  return replies;
}

std::string encoded(const EvalReply& reply) {
  wire::Writer w;
  reply.encode(w);
  return w.take();
}

TEST(EvalReplyWire, RoundTripPerKind) {
  // hash_bytes of each fixture's wire image, in reply_fixtures() order
  // (pinned like the request images above).
  const std::vector<std::uint64_t> pinned = {
      0xfbbd72118d9c9773ULL, 0xf0ef9d1f2afc3275ULL,
      0x13408875b7c25d8bULL, 0x2e5e82b710394c21ULL,
      0xd0e6f8d7ff056bffULL, 0x9b8fd8acfcda6cb8ULL};
  const std::vector<EvalReply> replies = reply_fixtures();
  ASSERT_EQ(replies.size(), pinned.size());
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const EvalReply& reply = replies[i];
    const std::string bytes = encoded(reply);
    EXPECT_EQ(image_hash(bytes), pinned[i]) << "reply " << i;
    wire::Reader r(bytes);
    const EvalReply decoded = EvalReply::decode(r);
    EXPECT_NO_THROW(r.expect_done());
    EXPECT_EQ(decoded.kind, reply.kind);
    EXPECT_EQ(encoded(decoded), bytes);
  }
}

// Canonical decode: every byte image a decoder accepts is exactly the
// encoding of what it decoded, so a request's content hash (the cache and
// shard key) always names the bytes that were sent. Mutates 1-2 bytes of
// `image` per trial; a decode may fail only with WireError.
template <class T>
void expect_canonical_decode(const std::string& image, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bytes = image;
    const int flips = 1 + static_cast<int>(rng() % 2);
    for (int f = 0; f < flips; ++f)
      bytes[rng() % bytes.size()] = static_cast<char>(rng() & 0xff);
    std::optional<T> decoded;
    try {
      wire::Reader r(bytes);
      decoded.emplace(T::decode(r));
      r.expect_done();
    } catch (const wire::WireError&) {
      continue;
    }
    ++accepted;
    wire::Writer w;
    decoded->encode(w);
    ASSERT_EQ(w.take(), bytes) << "seed " << seed << " trial " << trial;
  }
  EXPECT_GT(accepted, 0) << "seed " << seed;
}

TEST(EvalRequestWire, MutatedImagesDecodeCanonicallyOrNotAtAll) {
  std::uint64_t seed = 1;
  for (const EvalRequest& request : request_fixtures())
    expect_canonical_decode<EvalRequest>(encoded(request), seed++);
}

TEST(EvalReplyWire, MutatedImagesDecodeCanonicallyOrNotAtAll) {
  std::uint64_t seed = 101;
  for (const EvalReply& reply : reply_fixtures())
    expect_canonical_decode<EvalReply>(encoded(reply), seed++);
}

// --------------------------------------------------- message lifetimes
//
// A request holds only the job its kind names and a reply only the result
// its kind names, so copy, move, assignment and destruction are written by
// hand. Each check compares wire images; a sanitizer build also sees every
// payload freed exactly once.

/// `kind` compares and switches like its enum, but a caller cannot assign
/// it: neither from an enum value nor from another message's kind.
template <class Message, class Kind>
constexpr bool kKindIsReadOnly =
    std::is_convertible_v<decltype(Message::kind), Kind> &&
    !std::is_assignable_v<decltype((std::declval<Message&>().kind)), Kind> &&
    !std::is_assignable_v<decltype((std::declval<Message&>().kind)),
                          const decltype(Message::kind)&>;
static_assert(kKindIsReadOnly<EvalRequest, RequestKind>);
static_assert(kKindIsReadOnly<EvalReply, ReplyKind>);

TEST(EvalMessages, FootprintStaysWithinBudget) {
  // 984 and 504 bytes when a message held every kind's payload; a client
  // pools thousands of them.
  EXPECT_LE(sizeof(EvalRequest), 400u);
  EXPECT_LE(sizeof(EvalReply), 232u);
}

/// Copy and move, construction and assignment, from every fixture kind
/// into every other, self-assignment included.
template <class Message>
void expect_lifetimes_across_kinds(const std::vector<Message>& fixtures) {
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    for (std::size_t j = 0; j < fixtures.size(); ++j) {
      const Message& from = fixtures[j];
      const std::string want = encoded(from);
      const std::string before = encoded(fixtures[i]);
      SCOPED_TRACE("kind " + std::to_string(i) + " <- " + std::to_string(j));

      const Message copied(from);
      EXPECT_EQ(encoded(copied), want);
      Message source(from);
      const Message moved(std::move(source));
      EXPECT_EQ(encoded(moved), want);

      Message copy_assigned(fixtures[i]);
      copy_assigned = from;
      EXPECT_EQ(encoded(copy_assigned), want);
      EXPECT_EQ(encoded(from), want);

      Message move_assigned(fixtures[i]);
      Message donor(from);
      move_assigned = std::move(donor);
      EXPECT_EQ(encoded(move_assigned), want);
      // A moved-from message stays assignable and destructible.
      donor = fixtures[i];
      EXPECT_EQ(encoded(donor), before);

      Message self(from);
      Message& alias = self;
      self = alias;
      EXPECT_EQ(encoded(self), want);
      self = std::move(alias);
      EXPECT_EQ(encoded(self), want);
    }
  }
}

TEST(EvalMessages, RequestLifetimesAcrossEveryPairOfKinds) {
  const std::vector<EvalRequest> fixtures = request_fixtures();
  ASSERT_EQ(fixtures.size(), 5u);
  expect_lifetimes_across_kinds(fixtures);
}

TEST(EvalMessages, ReplyLifetimesAcrossEveryPairOfKinds) {
  const std::vector<EvalReply> fixtures = reply_fixtures();
  ASSERT_EQ(fixtures.size(), 6u);
  expect_lifetimes_across_kinds(fixtures);
}

TEST(EvalMessages, DefaultReplyIsAnErrorWithTheDefaultFloorplan) {
  const EvalReply reply;
  ASSERT_EQ(reply.kind, ReplyKind::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kNone);
  // Every reply carries a floorplan, default unless it is a kFloorplan one.
  EXPECT_TRUE(reply.floorplan == FloorplanResult{});
}

/// Decodes that fail once the kind tag is read: the payload decoder has
/// constructed the tag's payload and must free it. Cuts right after the
/// tag, inside the payload and one byte short of its end.
template <class Message>
void expect_truncated_payloads_throw(const std::vector<Message>& fixtures) {
  for (const Message& message : fixtures) {
    const std::string bytes = encoded(message);
    ASSERT_GT(bytes.size(), 3u);
    for (const std::size_t cut : {std::size_t{2}, bytes.size() / 2,
                                  bytes.size() - 1}) {
      wire::Reader r(bytes.data(), cut);
      EXPECT_THROW(Message::decode(r), wire::WireError)
          << "kind " << static_cast<int>(bytes[1]) << " cut at " << cut;
    }
  }
}

TEST(EvalMessages, DecodeThatThrowsAfterTheKindTagFreesThePayload) {
  expect_truncated_payloads_throw(request_fixtures());
  expect_truncated_payloads_throw(reply_fixtures());
}

TEST(EvalRequestWire, IntFieldOutOfRangeRejected) {
  // feedback_rs is an int carried as i64: locate its low byte as the one
  // byte where feedback_rs 2 and 3 differ, then plant 2^32 + 1.
  EvalRequest three = sample_stream_request();
  three.stream.graph.feedback_rs = 3;
  const std::string reference = encoded(sample_stream_request());
  const std::string changed = encoded(three);
  ASSERT_EQ(reference.size(), changed.size());
  std::size_t low = reference.size();
  for (std::size_t i = 0; i < reference.size(); ++i)
    if (reference[i] != changed[i]) low = i;
  ASSERT_LT(low + 7, reference.size());
  std::string bytes = reference;
  bytes[low] = 1;
  bytes[low + 4] = 1;
  wire::Reader r(bytes);
  EXPECT_THROW(EvalRequest::decode(r), wire::WireError);
}

TEST(EvalRequestWire, RsMapNamesMustStrictlyIncrease) {
  ThroughputJob job;
  job.rs = {{"AA", 1}, {"BB", 2}};
  const std::string image = encoded(EvalRequest(std::move(job)));
  const std::size_t second = image.find("BB");
  ASSERT_NE(second, std::string::npos);
  for (const char* name : {"AA", "A0"}) {  // a repeat, then a decrease
    std::string bytes = image;
    bytes.replace(second, 2, name);
    wire::Reader r(bytes);
    EXPECT_THROW(EvalRequest::decode(r), wire::WireError) << name;
  }
}

// ------------------------------------------------------------ adapters

bool rows_equal(const proc::ExperimentRow& a, const proc::ExperimentRow& b) {
  return a.label == b.label && a.golden_cycles == b.golden_cycles &&
         a.wp1_cycles == b.wp1_cycles && a.wp2_cycles == b.wp2_cycles &&
         a.th_wp1 == b.th_wp1 && a.th_wp2 == b.th_wp2 &&
         a.improvement == b.improvement && a.static_wp1 == b.static_wp1 &&
         a.wp1_equivalent == b.wp1_equivalent &&
         a.wp2_equivalent == b.wp2_equivalent &&
         a.result_ok == b.result_ok && a.detail == b.detail;
}

TEST(EvalAdapters, RunExperimentMatchesDirectOracle) {
  ExperimentJob job;
  job.program = ProgramRef::extraction_sort(8, 1);
  job.rs = {"adapter-test", {{"CU-RF", 1}}};
  const EvalRequest request(job);

  // Request path: evaluate against a private oracle.
  sim::SimOracle oracle;
  EvalContext context;
  context.oracle = &oracle;
  const proc::ExperimentRow via_eval = unwrap_row(evaluate(request, context));

  // Direct path on the program the ref names.
  sim::SimOracle direct;
  const proc::ExperimentRow via_oracle = direct.run_experiment(
      job.program.materialize(), job.cpu, job.rs, job.options);

  EXPECT_TRUE(rows_equal(via_eval, via_oracle));
}

TEST(EvalAdapters, Wp2ThroughputMatchesDirectOracle) {
  // The evaluator materializes the program and must score it exactly as a
  // direct oracle call on the program the ref names.
  ThroughputJob job;
  job.program = ProgramRef::extraction_sort(8, 2);
  job.rs = {{"CU-RF", 1}, {"RF-ALU", 1}};
  job.fifo_capacity = 16;
  const EvalRequest request(job);

  sim::SimOracle oracle;
  EvalContext context;
  context.oracle = &oracle;
  const double via_eval = unwrap_throughput(evaluate(request, context));

  sim::SimOracle direct;
  EXPECT_EQ(via_eval, direct.wp2_throughput(job.program.materialize(),
                                            job.cpu, job.rs, 16));
}

TEST(EvalAdapters, GeneratorRefMatchesInlineProgram) {
  // The wire path sends (generator, size, seed); the in-process path hands
  // the oracle the program built by hand. Both must evaluate identically.
  ThroughputJob job;
  job.program = ProgramRef::extraction_sort(8, 3);
  job.rs = {{"CU-RF", 1}};

  sim::SimOracle oracle;
  EvalContext context;
  context.oracle = &oracle;
  const double via_ref =
      unwrap_throughput(evaluate(EvalRequest(job), context));

  sim::SimOracle in_process;
  const double via_program = in_process.wp2_throughput(
      proc::extraction_sort_program(8, 3), job.cpu, job.rs,
      job.fifo_capacity);

  EXPECT_EQ(via_ref, via_program);
}

TEST(EvalAdapters, EnsembleSampleMatchesRunSampleJob) {
  gen::SampleJob job;
  job.family.name = "mesh-9";
  job.family.topology.family = gen::TopologyFamily::kMesh;
  job.family.topology.num_nodes = 9;
  job.sample = 1;
  job.ensemble_seed = 5;
  job.anneal.iterations = 60;

  const gen::SampleResult direct = gen::run_sample_job(job, nullptr);
  const gen::SampleResult via_eval =
      unwrap_sample(evaluate(EvalRequest(job), {}));
  EXPECT_TRUE(direct == via_eval);
}

// ---------------------------------------------------- error containment

TEST(EvalErrors, EvaluationFailureBecomesTypedErrorReply) {
  FloorplanJob bad;
  bad.topology.num_nodes = -3;  // generator precondition violation
  const EvalReply reply = evaluate(EvalRequest(std::move(bad)), {});
  ASSERT_EQ(reply.kind, ReplyKind::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kEvalFailed);
  EXPECT_FALSE(reply.error.message.empty());
  EXPECT_THROW(unwrap_floorplan(reply), ContractViolation);
}

TEST(EvalErrors, OverlongWiresBecomeErrorReply) {
  // Decodable but absurd: 1e300 mm² blocks are ~1e150 mm wide, so every
  // net needs more pipeline stages than an int can count.
  EvalRequest request = sample_floorplan_request();
  request.floorplan.system.blocks.max_area_mm2 = 1e300;
  const EvalReply reply = evaluate(request, {});
  ASSERT_EQ(reply.kind, ReplyKind::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kEvalFailed);
  EXPECT_NE(reply.error.message.find("pipeline stages"), std::string::npos)
      << reply.error.message;
}

TEST(EvalErrors, MeaninglessScheduleBecomesErrorReply) {
  EvalRequest request = sample_floorplan_request();
  request.floorplan.anneal.cooling = std::nan("");
  request.floorplan.anneal.initial_temperature = -1.0;
  const EvalReply reply = evaluate(request, {});
  ASSERT_EQ(reply.kind, ReplyKind::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kEvalFailed);
  EXPECT_NE(reply.error.message.find("initial_temperature"), std::string::npos)
      << reply.error.message;
}

TEST(EvalErrors, TruncatedWp2RunBecomesErrorReply) {
  // The 528,125-cycle golden slowed by six relay stations on CU-IC needs
  // more than the 2,000,000-cycle horizon; golden_cycles / horizon is not
  // a throughput.
  ThroughputJob job;
  job.program = ProgramRef::extraction_sort(256, 3);
  job.rs = {{"CU-IC", 6}};
  sim::SimOracle oracle;
  EvalContext context;
  context.oracle = &oracle;
  const EvalReply reply = evaluate(EvalRequest(std::move(job)), context);
  ASSERT_EQ(reply.kind, ReplyKind::kError);
  EXPECT_EQ(reply.error.code, ErrorCode::kEvalFailed);
  EXPECT_NE(reply.error.message.find("did not halt"), std::string::npos)
      << reply.error.message;
}

TEST(EvalErrors, AbsurdFifoCapacityBecomesErrorReply) {
  // Every shell allocates its input rings up front, so the capacity is
  // bounded before anything is allocated: 2^26 tokens would otherwise ask
  // for 512 MiB per input.
  for (const std::uint64_t capacity :
       {std::uint64_t{kMaxFifoCapacity} + 1, std::uint64_t{1} << 26}) {
    EvalRequest request = sample_stream_request();
    request.stream.fifo_capacity = capacity;
    const EvalReply reply = evaluate(request, {});
    ASSERT_EQ(reply.kind, ReplyKind::kError) << capacity;
    EXPECT_EQ(reply.error.code, ErrorCode::kEvalFailed) << capacity;
    EXPECT_NE(reply.error.message.find(std::to_string(kMaxFifoCapacity)),
              std::string::npos)
        << reply.error.message;
  }
}

TEST(EvalErrors, UnwrapKindMismatchThrows) {
  const EvalReply reply(0.0);
  EXPECT_THROW(unwrap_row(reply), ContractViolation);
  EXPECT_NO_THROW(unwrap_throughput(reply));
}

TEST(EvalErrors, BatchKeepsGoodResultsAroundFailures) {
  std::vector<EvalRequest> requests;
  requests.push_back(sample_floorplan_request());
  FloorplanJob bad;
  bad.topology.num_nodes = -1;
  requests.emplace_back(std::move(bad));
  requests.push_back(sample_floorplan_request());

  const std::vector<EvalReply> replies = evaluate_batch(requests, {});
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_TRUE(replies[0].ok());
  EXPECT_FALSE(replies[1].ok());
  EXPECT_TRUE(replies[2].ok());
  EXPECT_TRUE(replies[0].floorplan == replies[2].floorplan);
}

TEST(EvalErrors, FloorplanEvaluationIsDeterministic) {
  const EvalReply a = evaluate(sample_floorplan_request(), {});
  const EvalReply b = evaluate(sample_floorplan_request(), {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.floorplan == b.floorplan);
}

// ------------------------------------------------------------ floorplan

/// A floorplan request's reply rebuilt through the public layer calls the
/// way the evaluator composed them before its set-up was trimmed: the
/// netlist dressing, a relabelled copy of the topology for the engine,
/// rs_demand's label pairs and the label-keyed final engine query.
FloorplanResult layer_replay(const FloorplanJob& job) {
  Rng rng(job.seed);
  const graph::Digraph topology = gen::generate_topology(job.topology, rng);
  const gen::GeneratedSystem sys =
      gen::dress_topology(topology, job.system, rng);
  graph::Digraph base = topology;
  for (graph::EdgeId e = 0; e < base.num_edges(); ++e)
    base.edge(e).relay_stations = 0;
  graph::ThroughputEngine engine(std::move(base));
  fplan::AnnealOptions options = job.anneal.to_options();
  options.throughput_engine = &engine;
  const fplan::AnnealResult annealed = fplan::anneal(sys.instance, options);
  const auto demand =
      fplan::rs_demand(sys.instance, annealed.placement, options.delay_model);

  FloorplanResult result;
  result.area = annealed.area;
  result.wirelength = annealed.wirelength;
  result.cost = annealed.cost;
  result.accepted_moves = annealed.accepted_moves;
  result.evaluations = annealed.evaluations;
  for (const auto& [connection, rs] : demand) result.total_rs += rs;
  result.throughput = engine.throughput(demand);
  result.engine_incremental = engine.stats().incremental();
  result.engine_fallbacks = engine.stats().fallbacks;
  return result;
}

gen::TopologyConfig family(gen::TopologyFamily kind, int nodes) {
  gen::TopologyConfig config;
  config.family = kind;
  config.num_nodes = nodes;
  return config;
}

TEST(EvalFloorplan, ReplyEqualsTheLayerReplay) {
  // Four families, ten seeds each; every fifth request is area-driven,
  // whose anneal interns no labels, so the final query interns them.
  const std::vector<gen::TopologyConfig> families = {
      family(gen::TopologyFamily::kMesh, 9),
      family(gen::TopologyFamily::kMesh, 16),
      family(gen::TopologyFamily::kBarabasiAlbert, 24),
      family(gen::TopologyFamily::kWattsStrogatz, 16)};
  for (const gen::TopologyConfig& topology : families) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      FloorplanJob job;
      job.topology = topology;
      job.seed = seed * 7919;
      job.anneal.seed = seed;
      job.anneal.iterations = 60;
      job.anneal.weight_throughput = seed % 5 == 0 ? 0.0 : 10.0;
      const EvalReply reply = evaluate(EvalRequest(job), {});
      ASSERT_TRUE(reply.ok()) << reply.error.message;
      const FloorplanResult want = layer_replay(job);
      const std::string what = gen::family_name(topology.family) + "-" +
                               std::to_string(topology.num_nodes) +
                               " seed " + std::to_string(seed);
      EXPECT_TRUE(reply.floorplan == want) << what;
      EXPECT_EQ(reply.floorplan.throughput, want.throughput) << what;
      EXPECT_EQ(reply.floorplan.engine_incremental, want.engine_incremental)
          << what;
      EXPECT_EQ(reply.floorplan.engine_fallbacks, want.engine_fallbacks)
          << what;
    }
  }
}

TEST(EvalFloorplan, NetlistFlagDoesNotChangeTheReply) {
  EvalRequest with = sample_floorplan_request();
  EvalRequest without = with;
  without.floorplan.system.build_netlist = false;
  const EvalReply a = evaluate(with, {});
  const EvalReply b = evaluate(without, {});
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(encoded(a), encoded(b));
}

TEST(EvalFloorplan, PortLimitBreakingTopologiesNoLongerFail) {
  // Topologies no randommoore netlist can carry: a digraph left with a
  // node of in-degree 0 (no strong-connectivity repair) and a complete
  // 40-node digraph (in-degree 39 > 32). A floorplan reply reads no
  // netlist, so each evaluates as if dressed netlist-free.
  FloorplanJob sparse;
  sparse.topology = family(gen::TopologyFamily::kClusteredErdosRenyi, 10);
  sparse.topology.er_clusters = 1;
  sparse.topology.er_intra_probability = 0.15;
  sparse.topology.ensure_strongly_connected = false;
  FloorplanJob dense;
  dense.topology = family(gen::TopologyFamily::kClusteredErdosRenyi, 40);
  dense.topology.er_clusters = 1;
  dense.topology.er_intra_probability = 1.0;
  for (FloorplanJob job : {sparse, dense}) {
    job.seed = 5;
    job.anneal.iterations = 30;
    job.anneal.weight_throughput = 10.0;
    // The topology does break the port limits: a netlist dressing throws.
    Rng rng(job.seed);
    const graph::Digraph topology = gen::generate_topology(job.topology, rng);
    EXPECT_THROW(gen::dress_topology(topology, job.system, rng),
                 ContractViolation);

    const EvalReply reply = evaluate(EvalRequest(job), {});
    ASSERT_TRUE(reply.ok()) << reply.error.message;
    FloorplanJob netlist_free = job;
    netlist_free.system.build_netlist = false;
    EXPECT_EQ(encoded(reply), encoded(evaluate(
                                       EvalRequest(netlist_free), {})));
  }
}

}  // namespace
}  // namespace wp::eval
