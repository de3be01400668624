// Evaluation-service suite: frame codec round trips and strict rejection
// of every framing violation (bad magic / foreign version / reserved bits
// / oversize / checksum / trailing bytes), batch payload codecs, and an
// in-process EvalServer driven over real AF_UNIX sockets — replies must
// equal eval::evaluate_batch, a malformed payload (including a
// non-canonical request encoding) must cost one kError frame but not the
// connection, a framing violation must cost the
// connection but never the server, seeded random byte blobs must never
// crash it, and evaluate_sharded across two servers must merge back to
// the single-process reply stream. Pinned frame images and error-payload
// bytes, an unknown error code rejected, every server error path counted
// once, a client that vanishes before its reply, and a sharded call with
// one stopped server (it throws; the surviving connection still serves).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <chrono>
#include <iterator>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "eval/evaluate.hpp"
#include "eval/request.hpp"
#include "svc/eval_client.hpp"
#include "svc/eval_server.hpp"
#include "svc/protocol.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace wp::svc {
namespace {

// ----------------------------------------------------------- frame codec

std::vector<eval::EvalRequest> tiny_floorplan_batch(int count,
                                                    std::uint64_t seed0 = 50) {
  std::vector<eval::EvalRequest> requests;
  for (int i = 0; i < count; ++i) {
    eval::FloorplanJob job;
    job.topology.family = gen::TopologyFamily::kMesh;
    job.topology.num_nodes = 9;
    job.seed = seed0 + static_cast<std::uint64_t>(i);
    job.anneal.iterations = 12;
    job.anneal.weight_throughput = 10.0;
    requests.emplace_back(std::move(job));
  }
  return requests;
}

TEST(FrameCodec, RoundTripEveryType) {
  const std::vector<FrameType> types = {
      FrameType::kEvalBatch, FrameType::kReplyBatch, FrameType::kError,
      FrameType::kPing,      FrameType::kPong,       FrameType::kShutdown};
  for (const FrameType type : types) {
    const std::string payload =
        type == FrameType::kPing ? "" : "payload-for-type";
    const std::string bytes = encode_frame(type, payload);
    const Frame frame = decode_frame(bytes.data(), bytes.size());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
  }
}

eval::ErrorCode decode_failure_code(std::string bytes) {
  try {
    decode_frame(bytes.data(), bytes.size());
  } catch (const ProtocolError& e) {
    return e.code();
  }
  return eval::ErrorCode::kNone;  // decoded fine — the test will notice
}

TEST(FrameCodec, RejectsEveryFramingViolation) {
  const std::string good = encode_frame(FrameType::kPing, "abc");

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(decode_failure_code(bad_magic),
            eval::ErrorCode::kMalformedFrame);

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(kFrameVersion + 1);
  EXPECT_EQ(decode_failure_code(bad_version), eval::ErrorCode::kBadVersion);

  std::string bad_type = good;
  bad_type[5] = 99;
  EXPECT_EQ(decode_failure_code(bad_type), eval::ErrorCode::kMalformedFrame);

  std::string reserved_bits = good;
  reserved_bits[6] = 1;
  EXPECT_EQ(decode_failure_code(reserved_bits),
            eval::ErrorCode::kMalformedFrame);

  // Declared length over the cap: patch payload_len (offset 8, LE u32) to
  // kMaxFramePayload + 1.
  std::string oversize = good;
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(&oversize[8], &huge, sizeof huge);
  EXPECT_EQ(decode_failure_code(oversize), eval::ErrorCode::kOversizedFrame);

  std::string bad_checksum = good;
  bad_checksum[bad_checksum.size() - 1] ^= 0x5a;
  EXPECT_EQ(decode_failure_code(bad_checksum),
            eval::ErrorCode::kMalformedFrame);

  std::string flipped_payload = good;
  flipped_payload[12] ^= 0x01;  // payload no longer matches the checksum
  EXPECT_EQ(decode_failure_code(flipped_payload),
            eval::ErrorCode::kMalformedFrame);

  EXPECT_EQ(decode_failure_code(good + "x"),
            eval::ErrorCode::kMalformedFrame);
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_EQ(decode_failure_code(good.substr(0, cut)),
              eval::ErrorCode::kMalformedFrame)
        << "cut at " << cut;
}

TEST(FrameCodec, OversizedPayloadRefusedAtEncode) {
  EXPECT_THROW(
      encode_frame(FrameType::kEvalBatch,
                   std::string(kMaxFramePayload + 1, 'a')),
      ProtocolError);
}

TEST(FrameCodec, RequestBatchPayloadRoundTrip) {
  const std::vector<eval::EvalRequest> batch = tiny_floorplan_batch(3);
  const std::string payload = encode_request_batch(batch);
  const std::vector<eval::EvalRequest> decoded =
      decode_request_batch(payload);
  ASSERT_EQ(decoded.size(), batch.size());
  EXPECT_EQ(encode_request_batch(decoded), payload);
  EXPECT_THROW(decode_request_batch("garbage bytes"), wire::WireError);
}

TEST(FrameCodec, ErrorPayloadRoundTrip) {
  const std::string payload = encode_payload(
      eval::EvalError{eval::ErrorCode::kMalformedRequest, "what happened"});
  const eval::EvalError error = decode_payload<eval::EvalError>(payload);
  EXPECT_EQ(error.code, eval::ErrorCode::kMalformedRequest);
  EXPECT_EQ(error.message, "what happened");
}

TEST(FrameCodec, FrameImagesArePinned) {
  // hash_bytes of encode_frame(type, "payload-for-type") for FrameType 1-8:
  // if one moves, the frame layout changed and kFrameVersion must bump.
  const std::uint64_t pinned[] = {
      0x61bebe32234d3c20ULL, 0x9aabc9f5dbd02cd1ULL, 0x81ec628b673f8d5aULL,
      0x6339f75a5bde48ebULL, 0x99bf04ef470bad7cULL, 0xeb62834fb546425dULL,
      0x1cce9c1b7890f8c6ULL, 0x4bf6875f58f26a57ULL};
  for (std::uint8_t type = 1; type <= 8; ++type) {
    const std::string bytes =
        encode_frame(static_cast<FrameType>(type), "payload-for-type");
    EXPECT_EQ(hash_bytes(bytes.data(), bytes.size()), pinned[type - 1])
        << int{type};
  }
}

TEST(FrameCodec, ErrorPayloadBytesArePinned) {
  // hash_bytes of the error payload (code, "m") for every ErrorCode: the
  // layout is u32 code + string, stated once as EvalError's field list.
  const std::uint64_t pinned[] = {
      0xd955c40fa740fe3bULL, 0x5f4933070d44d988ULL, 0x0029eecad07610e1ULL,
      0x861d5dc23679ec2eULL, 0x8bac769954d53387ULL, 0x119fe590bad90ed4ULL,
      0xb280a1547e0a462dULL, 0x3874104be40e217aULL};
  const auto last = static_cast<std::uint32_t>(eval::ErrorCode::kInternal);
  ASSERT_EQ(last + 1, std::size(pinned));
  for (std::uint32_t code = 0; code <= last; ++code) {
    const eval::EvalError error{static_cast<eval::ErrorCode>(code), "m"};
    const std::string payload = encode_payload(error);
    EXPECT_EQ(hash_bytes(payload.data(), payload.size()), pinned[code])
        << code;
    EXPECT_EQ(decode_payload<eval::EvalError>(payload).code, error.code);
  }
}

TEST(FrameCodec, UnknownErrorCodeIsRejected) {
  wire::Writer w;
  w.u32(99);
  w.str("m");
  EXPECT_THROW(decode_payload<eval::EvalError>(w.bytes()), wire::WireError);
}

// ------------------------------------------------------- server fixture

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/wp_svc_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

EvalServerOptions test_server_options() {
  EvalServerOptions options;
  options.socket_path = unique_socket_path();
  options.workers = 2;
  return options;
}

/// Raw client socket, for writing bytes the EvalClient would refuse to.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << path;
  return fd;
}

TEST(EvalServer, BatchRepliesMatchInProcessEvaluation) {
  EvalServer server(test_server_options());
  server.start();

  std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(4);
  {
    eval::FloorplanJob bad;
    bad.topology.num_nodes = -1;
    requests.emplace_back(std::move(bad));
  }

  EvalClient client;
  client.connect(server.socket_path());
  const std::vector<eval::EvalReply> remote = client.evaluate(requests);
  const std::vector<eval::EvalReply> local =
      eval::evaluate_batch(requests, {});

  ASSERT_EQ(remote.size(), requests.size());
  ASSERT_EQ(local.size(), requests.size());
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    ASSERT_TRUE(remote[i].ok()) << remote[i].error.message;
    EXPECT_TRUE(remote[i].floorplan == local[i].floorplan) << i;
  }
  // The poisoned request became a typed error reply, not a dead server.
  EXPECT_FALSE(remote.back().ok());
  EXPECT_EQ(remote.back().error.code, eval::ErrorCode::kEvalFailed);
  EXPECT_TRUE(client.ping());

  client.close();
  server.stop();
  const EvalServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, requests.size());
  EXPECT_EQ(stats.dropped_connections, 0u);
}

TEST(EvalServer, MalformedPayloadCostsOneErrorFrameNotTheConnection) {
  EvalServer server(test_server_options());
  server.start();

  const int fd = raw_connect(server.socket_path());
  // Well-framed garbage: the frame decodes, the payload does not.
  write_frame(fd, FrameType::kEvalBatch, "this is not a request batch");
  auto reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(decode_payload<eval::EvalError>(reply->payload).code,
            eval::ErrorCode::kMalformedRequest);

  // Same connection, now a valid batch: it must still be served.
  write_frame(fd, FrameType::kEvalBatch,
              encode_request_batch(tiny_floorplan_batch(1)));
  auto good = read_frame(fd);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->type, FrameType::kReplyBatch);
  EXPECT_EQ(decode_reply_batch(good->payload).size(), 1u);

  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().dropped_connections, 0u);
  EXPECT_GE(server.stats().error_frames, 1u);
}

TEST(EvalServer, NonCanonicalRequestIsMalformedNotServed) {
  // Two well-framed batches whose requests decode only non-canonically
  // (an rs map that repeats a name; an int field past int range) must be
  // answered kMalformedRequest, never run as some other request.
  eval::ThroughputJob job;
  job.rs = {{"AA", 1}, {"BB", 2}};
  std::string repeated = encode_request_batch({eval::EvalRequest(job)});
  repeated.replace(repeated.find("BB"), 2, "AA");

  auto stream_batch = [](int feedback_rs) {
    eval::StreamJob stream;
    stream.graph.feedback_rs = feedback_rs;
    return encode_request_batch({eval::EvalRequest(stream)});
  };
  // feedback_rs 2 and 3 differ in one byte: the low byte of its i64.
  std::string wide = stream_batch(2);
  const std::string three = stream_batch(3);
  std::size_t low = 0;
  while (wide[low] == three[low]) ++low;
  wide[low + 4] = 1;  // 2^32 + 2

  EvalServer server(test_server_options());
  server.start();
  const int fd = raw_connect(server.socket_path());
  for (const std::string& payload : {repeated, wide}) {
    write_frame(fd, FrameType::kEvalBatch, payload);
    auto reply = read_frame(fd);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(decode_payload<eval::EvalError>(reply->payload).code,
              eval::ErrorCode::kMalformedRequest);
  }
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().requests, 0u);
  EXPECT_EQ(server.stats().dropped_connections, 0u);
}

TEST(EvalServer, GeneratorTagZeroIsMalformedRequest) {
  // The program generator tag of an experiment request is the one byte
  // where an extraction-sort and a matmul request of the same size and
  // seed differ; tag 0 names no generator
  // (EvalRequestWire.ProgramGeneratorTagZeroRejected pins its position).
  auto batch = [](eval::ProgramRef program) {
    eval::ExperimentJob job;
    job.program = program;
    return encode_request_batch({eval::EvalRequest(job)});
  };
  std::string zero = batch(eval::ProgramRef::extraction_sort(8, 1));
  const std::string matmul = batch(eval::ProgramRef::matmul(8, 1));
  ASSERT_EQ(zero.size(), matmul.size());
  std::size_t tag = 0;
  while (zero[tag] == matmul[tag]) ++tag;
  ASSERT_EQ(zero[tag], 1);
  zero[tag] = 0;
  EXPECT_THROW(decode_request_batch(zero), wire::WireError);

  EvalServer server(test_server_options());
  server.start();
  const int fd = raw_connect(server.socket_path());
  write_frame(fd, FrameType::kEvalBatch, zero);
  auto reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(decode_payload<eval::EvalError>(reply->payload).code,
            eval::ErrorCode::kMalformedRequest);
  ::close(fd);
  server.stop();
  EXPECT_EQ(server.stats().requests, 0u);
}

TEST(EvalServer, FramingViolationDropsOnlyThatConnection) {
  EvalServer server(test_server_options());
  server.start();

  const int fd = raw_connect(server.socket_path());
  const std::string junk = "NOT A FRAME AT ALL, JUST BYTES";
  ASSERT_EQ(::write(fd, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  ::shutdown(fd, SHUT_WR);
  // The server answers with a best-effort kError frame and closes; all we
  // require here is that the connection ends instead of hanging.
  try {
    while (read_frame(fd).has_value()) {
    }
  } catch (const ProtocolError&) {
    // mid-frame EOF on the error frame is also an acceptable ending
  }
  ::close(fd);

  // The server is still alive for new connections.
  EvalClient client;
  client.connect(server.socket_path());
  EXPECT_TRUE(client.ping());
  client.close();
  server.stop();
  EXPECT_GE(server.stats().dropped_connections, 1u);
}

TEST(EvalServer, OversizedDeclaredLengthIsRefused) {
  EvalServer server(test_server_options());
  server.start();

  const int fd = raw_connect(server.socket_path());
  // Hand-build a header declaring a payload over the cap.
  wire::Writer w;
  w.u32(kFrameMagic);
  w.u8(kFrameVersion);
  w.u8(static_cast<std::uint8_t>(FrameType::kEvalBatch));
  w.u16(0);
  w.u32(kMaxFramePayload + 1);
  const std::string& header = w.bytes();
  ASSERT_EQ(::write(fd, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));

  auto reply = read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(decode_payload<eval::EvalError>(reply->payload).code,
            eval::ErrorCode::kOversizedFrame);
  ::close(fd);

  EvalClient client;
  client.connect(server.socket_path());
  EXPECT_TRUE(client.ping());
  client.close();
  server.stop();
}

TEST(EvalServer, SurvivesSeededRandomBlobFuzzing) {
  EvalServer server(test_server_options());
  server.start();

  std::mt19937_64 rng(0xf00dULL);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> length(1, 512);
  for (int round = 0; round < 40; ++round) {
    const int fd = raw_connect(server.socket_path());
    std::string blob(length(rng), '\0');
    for (char& c : blob) c = static_cast<char>(byte(rng));
    // Half the rounds lead with the real magic so the fuzz also exercises
    // the post-header validation paths, not just the magic check.
    if (round % 2 == 0 && blob.size() >= 4)
      std::memcpy(&blob[0], &kFrameMagic, sizeof kFrameMagic);
    (void)!::write(fd, blob.data(), blob.size());
    ::shutdown(fd, SHUT_WR);
    try {
      while (read_frame(fd).has_value()) {
      }
    } catch (const ProtocolError&) {
    }
    ::close(fd);
  }

  // After 40 hostile connections the server still evaluates correctly.
  EvalClient client;
  client.connect(server.socket_path());
  EXPECT_TRUE(client.ping());
  const std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(2);
  const std::vector<eval::EvalReply> remote = client.evaluate(requests);
  const std::vector<eval::EvalReply> local =
      eval::evaluate_batch(requests, {});
  ASSERT_EQ(remote.size(), 2u);
  EXPECT_TRUE(remote[0].floorplan == local[0].floorplan);
  EXPECT_TRUE(remote[1].floorplan == local[1].floorplan);
  client.close();
  server.stop();
}

TEST(EvalServer, ShutdownFrameEndsWait) {
  EvalServer server(test_server_options());
  server.start();

  EvalClient client;
  client.connect(server.socket_path());
  EXPECT_TRUE(client.shutdown_server());  // acknowledged
  server.wait();  // must return now instead of blocking
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(EvalServer, ShardedEvaluationMatchesSingleProcess) {
  EvalServer server_a(test_server_options());
  EvalServer server_b(test_server_options());
  server_a.start();
  server_b.start();

  EvalClient client_a, client_b;
  client_a.connect(server_a.socket_path());
  client_b.connect(server_b.socket_path());

  const std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(7);
  const std::vector<eval::EvalReply> sharded =
      evaluate_sharded({&client_a, &client_b}, requests);
  const std::vector<eval::EvalReply> local =
      eval::evaluate_batch(requests, {});

  ASSERT_EQ(sharded.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(sharded[i].ok()) << sharded[i].error.message;
    EXPECT_TRUE(sharded[i].floorplan == local[i].floorplan) << i;
  }
  // The work genuinely split: each server saw a strict subset.
  client_a.close();
  client_b.close();
  server_a.stop();
  server_b.stop();
  EXPECT_EQ(server_a.stats().requests + server_b.stats().requests,
            requests.size());
  EXPECT_GT(server_a.stats().requests, 0u);
  EXPECT_GT(server_b.stats().requests, 0u);
}

TEST(EvalServer, EveryErrorPathCountsOnce) {
  EvalServer server(test_server_options());
  server.start();

  const int fd = raw_connect(server.socket_path());
  auto expect_error = [fd](eval::ErrorCode code) {
    auto reply = read_frame(fd);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(decode_payload<eval::EvalError>(reply->payload).code, code);
  };
  write_frame(fd, FrameType::kPong, {});  // wrong direction
  expect_error(eval::ErrorCode::kMalformedRequest);
  write_frame(fd, FrameType::kEvalBatch, "this is not a request batch");
  expect_error(eval::ErrorCode::kMalformedRequest);
  write_frame(fd, FrameType::kStatsRequest, "unexpected");
  expect_error(eval::ErrorCode::kMalformedRequest);
  const std::string junk = "NOT A FRAME AT ALL, JUST BYTES";  // framing
  ASSERT_EQ(::write(fd, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  expect_error(eval::ErrorCode::kMalformedFrame);
  EXPECT_FALSE(read_frame(fd).has_value());  // then dropped
  ::close(fd);

  // Frames: three read on the first connection plus the scrape below,
  // which counts itself.
  EvalClient client;
  client.connect(server.socket_path());
  const json::Value doc = json::Value::parse(client.stats_json());
  const EvalServer::Stats stats = server.stats();
  EXPECT_EQ(stats.error_frames, 4u);
  EXPECT_EQ(stats.dropped_connections, 1u);
  EXPECT_EQ(stats.frames, 4u);
  EXPECT_EQ(stats.connections, 2u);
  EXPECT_EQ(stats.requests, 0u);
  // The scrape's server section is Stats, read before this stats().
  const json::Value* srv = doc.find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->find("connections")->as_double(), stats.connections);
  EXPECT_EQ(srv->find("frames")->as_double(), stats.frames);
  EXPECT_EQ(srv->find("requests")->as_double(), stats.requests);
  EXPECT_EQ(srv->find("error_frames")->as_double(), stats.error_frames);
  EXPECT_EQ(srv->find("dropped_connections")->as_double(),
            stats.dropped_connections);
  client.close();
  server.stop();
}

TEST(EvalServer, VanishedPeerDoesNotKillTheServer) {
  // The client closes before its reply; writing that reply must fail that
  // connection only, never raise SIGPIPE in the daemon.
  EvalServer server(test_server_options());
  server.start();
  eval::FloorplanJob job;
  job.topology.family = gen::TopologyFamily::kMesh;
  job.topology.num_nodes = 64;
  job.anneal.iterations = 4000;
  const int fd = raw_connect(server.socket_path());
  write_frame(fd, FrameType::kEvalBatch,
              encode_request_batch({eval::EvalRequest(job)}));
  ::close(fd);
  // requests is counted just before the reply is written.
  while (server.stats().requests == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  EvalClient client;
  client.connect(server.socket_path());
  EXPECT_TRUE(client.ping());
  const std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(1);
  const std::vector<eval::EvalReply> remote = client.evaluate(requests);
  ASSERT_EQ(remote.size(), 1u);
  EXPECT_TRUE(remote[0].floorplan ==
              eval::evaluate_batch(requests, {})[0].floorplan);
  client.close();
  server.stop();
}

TEST(EvalClient, UnknownErrorCodeIsAMalformedFrame) {
  // A peer answering with an error code no ErrorCode names must not pass
  // for some other code.
  const std::string path = unique_socket_path();
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    try {
      (void)read_frame(fd);
      wire::Writer w;
      w.u32(99);
      w.str("m");
      write_frame(fd, FrameType::kError, w.bytes());
    } catch (const ProtocolError&) {
    }
    ::close(fd);
  });

  EvalClient client;
  client.connect(path);
  try {
    client.evaluate(tiny_floorplan_batch(1));
    ADD_FAILURE() << "an unknown error code was accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), eval::ErrorCode::kMalformedFrame) << e.what();
  }
  peer.join();
  client.close();
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(EvalServer, ShardedFailureThrowsAndSurvivorStillServes) {
  EvalServer server_a(test_server_options());
  EvalServer server_b(test_server_options());
  server_a.start();
  server_b.start();
  EvalClient client_a, client_b;
  client_a.connect(server_a.socket_path());
  client_b.connect(server_b.socket_path());
  server_b.stop();

  EXPECT_THROW(
      evaluate_sharded({&client_a, &client_b}, tiny_floorplan_batch(4)),
      ProtocolError);
  // Shard a's reply was consumed: its connection answers the next batch.
  const std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(2, 80);
  const std::vector<eval::EvalReply> remote = client_a.evaluate(requests);
  const std::vector<eval::EvalReply> local =
      eval::evaluate_batch(requests, {});
  ASSERT_EQ(remote.size(), 2u);
  EXPECT_TRUE(remote[0].floorplan == local[0].floorplan);
  EXPECT_TRUE(remote[1].floorplan == local[1].floorplan);
  EXPECT_EQ(server_a.stats().requests, 4u);
  client_a.close();
  server_a.stop();
}

TEST(EvalServer, ShardingRejectsARepeatedClient) {
  EvalServer server(test_server_options());
  server.start();
  EvalClient client;
  client.connect(server.socket_path());
  EXPECT_THROW(evaluate_sharded({&client, &client}, tiny_floorplan_batch(2)),
               ContractViolation);
  EXPECT_TRUE(client.ping());  // nothing was sent
  client.close();
  server.stop();
}

}  // namespace
}  // namespace wp::svc
