#include "svc/eval_server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "eval/evaluate.hpp"
#include "obs/metrics.hpp"
#include "svc/ports.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace wp::svc {

EvalServer::EvalServer(EvalServerOptions options)
    : options_(std::move(options)), pool_(options_.workers) {
  if (options_.socket_path.empty())
    options_.socket_path = default_socket_path();
}

EvalServer::~EvalServer() { stop(); }

void EvalServer::start() {
  WP_REQUIRE(!running_.load(), "server already running");
  listen_fd_ = open_unix_socket(options_.socket_path, /*listen=*/true);
  if (listen_fd_ < 0)
    throw ProtocolError(eval::ErrorCode::kInternal,
                        "cannot listen on " + options_.socket_path + ": " +
                            std::strerror(errno));
  running_.store(true);
  shutdown_requested_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void EvalServer::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_.load() || !running_.load();
  });
}

void EvalServer::stop() {
  if (!running_.exchange(false)) return;
  // Shutting the listener down unblocks accept(); shutting down the
  // connection fds unblocks their readers. The listener is closed only
  // once the accept thread has joined: until then that thread still reads
  // listen_fd_, and a closed fd number could be reused under it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(connection_threads_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  for (std::thread& t : threads)
    if (t.joinable()) t.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const int fd : connection_fds_) ::close(fd);
    connection_fds_.clear();
  }
  ::unlink(options_.socket_path.c_str());
  shutdown_cv_.notify_all();
}

EvalServer::Stats EvalServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void EvalServer::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (stop()) or unrecoverable
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    ++stats_.connections;
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back(
        [this, fd] { handle_connection(fd); });
  }
}

void EvalServer::handle_connection(int fd) {
  try {
    while (running_.load()) {
      std::optional<Frame> frame;
      try {
        frame = read_frame(fd);
      } catch (const ProtocolError& e) {
        // Framing is broken — the stream cannot be resynchronized. Tell
        // the client why and drop the connection; the server and its
        // other connections are unaffected.
        count(&Stats::dropped_connections);
        send_error(fd, e.code(), e.what());
        break;
      }
      if (!frame.has_value()) break;  // clean EOF
      count(&Stats::frames);
      if (!handle_frame(fd, *frame)) break;
    }
  } catch (const ProtocolError&) {
    // A write failed: the peer is gone.
  }
  // The fd is closed by stop(); closing here too would race a reuse of the
  // descriptor number. Just mark the connection finished by shutting it
  // down (idempotent).
  ::shutdown(fd, SHUT_RDWR);
}

void EvalServer::count(std::uint64_t Stats::*field, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.*field += n;
}

void EvalServer::send_error(int fd, eval::ErrorCode code,
                            const std::string& message) {
  count(&Stats::error_frames);
  write_frame(fd, FrameType::kError,
              encode_payload(eval::EvalError{code, message}));
}

std::string EvalServer::stats_json() const {
  const Stats server = stats();
  const sim::GoldenCache::Stats cache = oracle_.stats();
  std::ostringstream os;
  json::JsonWriter json(os);
  json.begin_object();
  json.field("schema", "wirepipe-stats/1");
  json.key("server").begin_object();
  json.field("connections", server.connections)
      .field("frames", server.frames)
      .field("requests", server.requests)
      .field("error_frames", server.error_frames)
      .field("dropped_connections", server.dropped_connections)
      .field("workers", static_cast<unsigned long long>(pool_.size()));
  json.end_object();
  json.key("golden_cache").begin_object();
  json.field("hits", cache.hits)
      .field("misses", cache.misses)
      .field("golden_runs", cache.golden_runs)
      .field("evictions", cache.evictions)
      .field("entries", static_cast<unsigned long long>(cache.entries));
  json.end_object();
  json.key("metrics");
  obs::Registry::global().write_json(json);
  json.end_object();
  os << "\n";
  return os.str();
}

bool EvalServer::handle_frame(int fd, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPing:
      write_frame(fd, FrameType::kPong, {});
      return true;
    case FrameType::kShutdown:
      write_frame(fd, FrameType::kPong, {});
      shutdown_requested_.store(true);
      shutdown_cv_.notify_all();
      return false;
    case FrameType::kEvalBatch: {
      std::vector<eval::EvalRequest> requests;
      try {
        requests = decode_request_batch(frame.payload);
      } catch (const wire::WireError& e) {
        // The frame was well-formed but its payload is not a request
        // batch: typed error, connection stays up.
        send_error(fd, eval::ErrorCode::kMalformedRequest, e.what());
        return true;
      }
      eval::EvalContext context;
      context.oracle = &oracle_;
      static obs::Histogram& batch_ns =
          obs::Registry::global().histogram("svc/server/batch_ns");
      const std::uint64_t batch_start_ns = obs::now_ns();
      const std::vector<eval::EvalReply> replies =
          eval::evaluate_batch(requests, context, &pool_);
      batch_ns.record(obs::now_ns() - batch_start_ns);
      count(&Stats::requests, requests.size());
      write_frame(fd, FrameType::kReplyBatch, encode_reply_batch(replies));
      return true;
    }
    case FrameType::kStatsRequest: {
      if (!frame.payload.empty()) {
        // The scrape is defined as payloadless; anything else is a
        // malformed request, not a framing violation — keep the
        // connection.
        send_error(fd, eval::ErrorCode::kMalformedRequest,
                   "kStatsRequest carries no payload");
        return true;
      }
      static obs::Counter& scrapes =
          obs::Registry::global().counter("svc/server/stats_scrapes");
      scrapes.inc();
      write_frame(fd, FrameType::kStatsReply, stats_json());
      return true;
    }
    case FrameType::kReplyBatch:
    case FrameType::kError:
    case FrameType::kStatsReply:
    case FrameType::kPong:
      // Server-to-client frame types arriving at the server: protocol
      // misuse, but harmless — typed error, keep the connection.
      send_error(fd, eval::ErrorCode::kMalformedRequest,
                 "unexpected client frame type");
      return true;
  }
  return true;
}

}  // namespace wp::svc
