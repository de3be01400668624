#include "svc/eval_client.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "svc/protocol.hpp"
#include "util/assert.hpp"

namespace wp::svc {

namespace {

/// A spawned worker listens a few milliseconds after the fork. The pause
/// between polls doubles from the first to the cap; the budget bounds the
/// whole launch.
constexpr std::chrono::microseconds kFirstPollPause{100};
constexpr std::chrono::microseconds kMaxPollPause{1000};
constexpr std::chrono::seconds kListenBudget{5};

}  // namespace

EvalClient::~EvalClient() { close(); }

EvalClient::EvalClient(EvalClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

void EvalClient::connect(const std::string& socket_path) {
  close();
  fd_ = open_unix_socket(socket_path, /*listen=*/false);
  if (fd_ < 0)
    throw ProtocolError(eval::ErrorCode::kInternal,
                        "could not connect to " + socket_path + ": " +
                            std::strerror(errno));
}

bool EvalClient::try_connect(const std::string& socket_path,
                             pid_t server_pid) {
  close();
  const int fd = open_unix_socket(socket_path, /*listen=*/false);
  if (fd < 0) return false;
  ucred peer{};
  socklen_t size = sizeof peer;
  if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &peer, &size) == 0 &&
      peer.pid == server_pid) {
    fd_ = fd;
    return true;
  }
  ::close(fd);
  return false;
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

bool EvalClient::shutdown_server() {
  // The server writes the acknowledgement before it starts shutting down,
  // so a missing one means the frame was not taken.
  bool acknowledged = true;
  try {
    send(FrameType::kShutdown, {});
    expect(FrameType::kPong);
  } catch (const ProtocolError&) {
    acknowledged = false;
  }
  close();
  return acknowledged;
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
  pids_.assign(options_.workers, 0);
  clients_.resize(options_.workers);
  paths_.clear();
  for (std::size_t w = 0; w < options_.workers; ++w)
    paths_.push_back(
        socket_path(options_.base_port + static_cast<port_name>(w)));
  try {
    launch(0, options_.workers);
  } catch (...) {
    stop();
    throw;
  }
  running_ = true;
}

void WorkerFleet::launch(std::size_t first, std::size_t count) {
  // Every argv is built before the fork: the child of a threaded process
  // may only call async-signal-safe functions before it execs.
  std::vector<std::vector<std::string>> args(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& path = paths_[first + i];
    args[i] = {options_.evald_path, "--socket", path, "--workers",
               std::to_string(options_.threads_per_worker)};
    args[i].insert(args[i].end(), options_.extra_args.begin(),
                   options_.extra_args.end());
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<char*> argv;
    for (std::string& arg : args[i]) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    WP_CHECK(pid >= 0, "fork() failed");
    if (pid == 0) {
      ::execv(options_.evald_path.c_str(), argv.data());
      ::_exit(127);  // exec failed
    }
    pids_[first + i] = pid;
  }

  deadline_ = Clock::now() + kListenBudget;
  for (std::size_t w = first; w < first + count; ++w) {
    siginfo_t exited{};
    if (await_listener(w, exited)) continue;
    if (exited.si_pid == pids_[w])
      throw ProtocolError(
          eval::ErrorCode::kInternal,
          "worker " + std::to_string(w) + " (" + options_.evald_path +
              (exited.si_code == CLD_EXITED ? ") exited with status "
                                            : ") was killed by signal ") +
              std::to_string(exited.si_status) + " before listening on " +
              paths_[w]);
    throw ProtocolError(eval::ErrorCode::kInternal,
                        "worker " + std::to_string(w) + " did not listen on " +
                            paths_[w] + " within " +
                            std::to_string(kListenBudget.count()) + " s");
  }
}

bool WorkerFleet::await_listener(std::size_t w, siginfo_t& exited) {
  std::chrono::microseconds pause = kFirstPollPause;
  while (!clients_[w].try_connect(paths_[w], pids_[w])) {
    // WNOWAIT leaves an exited worker for stop() to reap.
    if (::waitid(P_PID, static_cast<id_t>(pids_[w]), &exited,
                 WEXITED | WNOHANG | WNOWAIT) == 0 &&
        exited.si_pid == pids_[w])
      return false;
    if (Clock::now() >= deadline_) return false;
    std::this_thread::sleep_for(pause);
    pause = std::min(pause * 2, kMaxPollPause);
  }
  return true;
}

void WorkerFleet::stop() {
  if (!running_ && pids_.empty()) return;
  std::vector<char> killed_owner(pids_.size(), 0);
  for (std::size_t w = 0; w < pids_.size(); ++w) {
    if (pids_[w] <= 0) continue;
    // A worker that took a kShutdown frame unlinks its socket and exits.
    const bool had_client = clients_[w].connected();
    if (had_client && clients_[w].shutdown_server()) continue;
    // Any other would never exit by itself, so it is killed. Its socket
    // file is removed after the kill only when a connection whose peer is
    // that worker proved the file its own: a worker without a client gets
    // until start()'s deadline to listen for that proof.
    siginfo_t exited{};
    killed_owner[w] = had_client || await_listener(w, exited);
    ::kill(pids_[w], SIGKILL);
  }
  clients_.clear();
  for (std::size_t w = 0; w < pids_.size(); ++w) {
    if (pids_[w] <= 0) continue;
    while (::waitpid(pids_[w], nullptr, 0) < 0 && errno == EINTR) {
    }
    if (killed_owner[w]) ::unlink(paths_[w].c_str());
  }
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
