#include "svc/eval_client.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "svc/protocol.hpp"
#include "util/assert.hpp"

namespace wp::svc {

namespace {

/// A daemon that was just spawned needs a moment to bind.
constexpr int kConnectRetries = 50;
constexpr int kConnectRetryMs = 100;

}  // namespace

EvalClient::~EvalClient() { close(); }

EvalClient::EvalClient(EvalClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

void EvalClient::connect(const std::string& socket_path) {
  close();
  for (int attempt = 0; attempt <= kConnectRetries; ++attempt) {
    if (attempt > 0) ::usleep(kConnectRetryMs * 1000);
    fd_ = open_unix_socket(socket_path, /*listen=*/false);
    if (fd_ >= 0) return;
  }
  throw ProtocolError(eval::ErrorCode::kInternal,
                      "could not connect to " + socket_path + ": " +
                          std::strerror(errno));
}

void EvalClient::close() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

void EvalClient::send(FrameType type, const std::string& payload) {
  WP_REQUIRE(connected(), "client is not connected");
  sent_ns_ = obs::now_ns();
  write_frame(fd_, type, payload);
}

std::string EvalClient::expect(FrameType type) {
  std::optional<Frame> frame = read_frame(fd_);
  if (!frame.has_value())
    throw ProtocolError(eval::ErrorCode::kInternal,
                        "server closed the connection before replying");
  if (frame->type == FrameType::kError) {
    static obs::Counter& error_replies =
        obs::Registry::global().counter("svc/client/error_replies");
    error_replies.inc();
    eval::EvalError error{eval::ErrorCode::kMalformedFrame,
                          "undecodable error frame"};
    try {
      error = decode_payload<eval::EvalError>(frame->payload);
    } catch (const wire::WireError&) {
    }
    throw ProtocolError(error.code,
                        "server rejected the request: " + error.message);
  }
  if (frame->type != type)
    throw ProtocolError(eval::ErrorCode::kMalformedFrame,
                        "unexpected reply frame type " +
                            std::to_string(static_cast<int>(frame->type)));
  return std::move(frame->payload);
}

std::vector<eval::EvalReply> EvalClient::receive_replies(std::size_t count) {
  static obs::Counter& batches =
      obs::Registry::global().counter("svc/client/batches");
  static obs::Histogram& roundtrip_ns =
      obs::Registry::global().histogram("svc/client/roundtrip_ns");
  std::vector<eval::EvalReply> replies =
      decode_reply_batch(expect(FrameType::kReplyBatch));
  batches.inc();
  roundtrip_ns.record(obs::now_ns() - sent_ns_);
  if (replies.size() != count)
    throw ProtocolError(eval::ErrorCode::kInternal,
                        "reply count does not match request count");
  return replies;
}

std::vector<eval::EvalReply> EvalClient::evaluate(
    const std::vector<eval::EvalRequest>& requests) {
  send(FrameType::kEvalBatch, encode_request_batch(requests));
  return receive_replies(requests.size());
}

bool EvalClient::ping() {
  if (!connected()) return false;
  try {
    send(FrameType::kPing, {});
    expect(FrameType::kPong);
    return true;
  } catch (const ProtocolError&) {
    return false;
  }
}

std::string EvalClient::stats_json() {
  send(FrameType::kStatsRequest, {});
  return expect(FrameType::kStatsReply);
}

void EvalClient::shutdown_server() {
  try {
    send(FrameType::kShutdown, {});
    expect(FrameType::kPong);
  } catch (const ProtocolError&) {
    // The server may tear the socket down before the ack leaves: the
    // shutdown still happened.
  }
  close();
}

// ------------------------------------------------------------- sharding

std::vector<eval::EvalReply> evaluate_sharded(
    std::vector<EvalClient*> clients,
    const std::vector<eval::EvalRequest>& requests) {
  WP_REQUIRE(!clients.empty(), "sharding needs at least one client");
  const std::size_t n = clients.size();
  for (EvalClient* client : clients)
    WP_REQUIRE(std::count(clients.begin(), clients.end(), client) == 1,
               "each shard needs its own client connection");
  // Round-robin assignment: request i → client i mod N. Deterministic in
  // the request list alone, so the merged replies are independent of
  // worker count and timing.
  std::vector<std::vector<eval::EvalRequest>> shards(n);
  for (std::size_t i = 0; i < requests.size(); ++i)
    shards[i % n].push_back(requests[i]);

  // Send every shard, then read every reply in worker order (see the
  // header for why this cannot deadlock). A shard that fails to send is
  // not read; every other reply is still consumed.
  std::vector<std::exception_ptr> failures(n);
  for (std::size_t w = 0; w < n; ++w) {
    if (shards[w].empty()) continue;
    try {
      clients[w]->send(FrameType::kEvalBatch, encode_request_batch(shards[w]));
    } catch (...) {
      failures[w] = std::current_exception();
    }
  }
  std::vector<std::vector<eval::EvalReply>> shard_replies(n);
  for (std::size_t w = 0; w < n; ++w) {
    if (shards[w].empty() || failures[w]) continue;
    try {
      shard_replies[w] = clients[w]->receive_replies(shards[w].size());
    } catch (...) {
      failures[w] = std::current_exception();
    }
  }
  for (const std::exception_ptr& failure : failures)
    if (failure) std::rethrow_exception(failure);

  std::vector<eval::EvalReply> merged(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    merged[i] = std::move(shard_replies[i % n][i / n]);
  return merged;
}

// ------------------------------------------------------------ WorkerFleet

WorkerFleet::WorkerFleet(FleetOptions options)
    : options_(std::move(options)) {
  WP_REQUIRE(options_.workers > 0, "fleet needs at least one worker");
  WP_REQUIRE(!options_.evald_path.empty(),
             "fleet needs the wirepipe_evald binary path");
}

WorkerFleet::~WorkerFleet() { stop(); }

void WorkerFleet::start() {
  WP_REQUIRE(!running_, "fleet already running");
  std::vector<std::string> paths;
  for (std::size_t w = 0; w < options_.workers; ++w)
    paths.push_back(
        socket_path(options_.base_port + static_cast<port_name>(w)));

  for (std::size_t w = 0; w < options_.workers; ++w) {
    const pid_t pid = ::fork();
    WP_CHECK(pid >= 0, "fork() failed");
    if (pid == 0) {
      // Child: exec the worker daemon on its own port.
      std::vector<std::string> args = {
          options_.evald_path, "--socket", paths[w], "--workers",
          std::to_string(options_.threads_per_worker)};
      args.insert(args.end(), options_.extra_args.begin(),
                  options_.extra_args.end());
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(options_.evald_path.c_str(), argv.data());
      ::_exit(127);  // exec failed
    }
    pids_.push_back(pid);
  }

  clients_.resize(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w)
    clients_[w].connect(paths[w]);
  running_ = true;
}

void WorkerFleet::stop() {
  if (!running_ && pids_.empty()) return;
  for (EvalClient& client : clients_)
    if (client.connected()) client.shutdown_server();
  clients_.clear();
  for (const pid_t pid : pids_) ::waitpid(pid, nullptr, 0);
  pids_.clear();
  running_ = false;
}

std::vector<eval::EvalReply> WorkerFleet::evaluate_sharded(
    const std::vector<eval::EvalRequest>& requests) {
  WP_REQUIRE(running_, "fleet is not running");
  std::vector<EvalClient*> clients;
  for (EvalClient& client : clients_) clients.push_back(&client);
  return svc::evaluate_sharded(std::move(clients), requests);
}

}  // namespace wp::svc
