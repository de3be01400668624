#include "svc/eval_server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <sstream>

#include "eval/evaluate.hpp"
#include "obs/metrics.hpp"
#include "svc/ports.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace wp::svc {

namespace {

/// Obs mirror of EvalServer::Stats plus the batch-latency histogram —
/// bumped at the same sites as the struct, so a stats scrape and the
/// registry always agree. Aggregated across server instances (shards).
struct ServerMetrics {
  obs::Counter& connections;
  obs::Counter& frames;
  obs::Counter& requests;
  obs::Counter& error_frames;
  obs::Counter& dropped_connections;
  obs::Counter& stats_scrapes;
  obs::Histogram& batch_ns;

  static ServerMetrics& get() {
    obs::Registry& registry = obs::Registry::global();
    static ServerMetrics metrics{
        registry.counter("svc/server/connections"),
        registry.counter("svc/server/frames"),
        registry.counter("svc/server/requests"),
        registry.counter("svc/server/error_frames"),
        registry.counter("svc/server/dropped_connections"),
        registry.counter("svc/server/stats_scrapes"),
        registry.histogram("svc/server/batch_ns")};
    return metrics;
  }
};

void bind_unix(int fd, const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  WP_REQUIRE(path.size() < sizeof(addr.sun_path),
             "socket path too long for sockaddr_un: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale endpoint from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    throw ProtocolError(eval::ErrorCode::kInternal,
                        "bind(" + path + ") failed: " + std::strerror(errno));
}

}  // namespace

EvalServer::EvalServer(EvalServerOptions options)
    : options_(std::move(options)) {
  if (options_.socket_path.empty())
    options_.socket_path = default_socket_path();
  oracle_ = sim::SimOracle::make_shared(options_.oracle);
  pool_ = std::make_unique<ThreadPool>(options_.workers);
}

EvalServer::~EvalServer() { stop(); }

void EvalServer::start() {
  WP_REQUIRE(!running_.load(), "server already running");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw ProtocolError(eval::ErrorCode::kInternal,
                        std::string("socket() failed: ") +
                            std::strerror(errno));
  bind_unix(listen_fd_, options_.socket_path);
  if (::listen(listen_fd_, 64) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ProtocolError(eval::ErrorCode::kInternal,
                        "listen() failed: " + reason);
  }
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

void EvalServer::serve() {
  start();
  wait();
  stop();
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
    ServerMetrics::get().connections.inc();
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back(
        [this, fd] { handle_connection(fd); });
  }
}

void EvalServer::handle_connection(int fd) {
  bool drop = false;
  while (running_.load() && !drop) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(fd);
    } catch (const ProtocolError& e) {
      // Framing is broken — the stream cannot be resynchronized. Tell the
      // client why (best effort) and drop the connection; the server and
      // its other connections are unaffected.
      try {
        write_frame(fd, FrameType::kError,
                    encode_error(e.code(), e.what()));
      } catch (const ProtocolError&) {
      }
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.error_frames;
      ++stats_.dropped_connections;
      ServerMetrics::get().error_frames.inc();
      ServerMetrics::get().dropped_connections.inc();
      drop = true;
      continue;
    }
    if (!frame.has_value()) break;  // clean EOF
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.frames;
    }
    ServerMetrics::get().frames.inc();
    try {
      if (!handle_frame(fd, *frame)) break;
    } catch (const ProtocolError&) {
      break;  // reply write failed — peer is gone
    }
  }
  // The fd is closed by stop(); closing here too would race a reuse of the
  // descriptor number. Just mark the connection finished by shutting it
  // down (idempotent).
  ::shutdown(fd, SHUT_RDWR);
}

std::string EvalServer::stats_json() const {
  const Stats server = stats();
  const sim::GoldenCache::Stats cache = oracle_->stats();
  const sim::SimOracle::SpecStats specs = oracle_->spec_stats();
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
      .field("workers", static_cast<unsigned long long>(pool_->size()));
  json.end_object();
  json.key("golden_cache").begin_object();
  json.field("hits", cache.hits)
      .field("misses", cache.misses)
      .field("golden_runs", cache.golden_runs)
      .field("evictions", cache.evictions)
      .field("entries", static_cast<unsigned long long>(cache.entries))
      .field("disk_hits", cache.disk_hits)
      .field("disk_stores", cache.disk_stores);
  json.end_object();
  json.key("spec_cache").begin_object();
  json.field("builds", specs.builds).field("reuses", specs.reuses);
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
        write_frame(fd, FrameType::kError,
                    encode_error(eval::ErrorCode::kMalformedRequest,
                                 e.what()));
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.error_frames;
        ServerMetrics::get().error_frames.inc();
        return true;
      }
      eval::EvalContext context;
      context.oracle = oracle_.get();
      const std::uint64_t batch_start_ns = obs::now_ns();
      const std::vector<eval::EvalReply> replies =
          eval::evaluate_batch(requests, context, pool_.get());
      ServerMetrics::get().batch_ns.record(obs::now_ns() - batch_start_ns);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.requests += requests.size();
      }
      ServerMetrics::get().requests.add(requests.size());
      write_frame(fd, FrameType::kReplyBatch, encode_reply_batch(replies));
      return true;
    }
    case FrameType::kStatsRequest: {
      if (!frame.payload.empty()) {
        // The scrape is defined as payloadless; anything else is a
        // malformed request, not a framing violation — keep the
        // connection.
        write_frame(fd, FrameType::kError,
                    encode_error(eval::ErrorCode::kMalformedRequest,
                                 "kStatsRequest carries no payload"));
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.error_frames;
        ServerMetrics::get().error_frames.inc();
        return true;
      }
      ServerMetrics::get().stats_scrapes.inc();
      write_frame(fd, FrameType::kStatsReply, stats_json());
      return true;
    }
    case FrameType::kReplyBatch:
    case FrameType::kError:
    case FrameType::kStatsReply:
    case FrameType::kPong: {
      // Server-to-client frame types arriving at the server: protocol
      // misuse, but harmless — typed error, keep the connection.
      write_frame(fd, FrameType::kError,
                  encode_error(eval::ErrorCode::kMalformedRequest,
                               "unexpected client frame type"));
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.error_frames;
      return true;
    }
  }
  return true;
}

}  // namespace wp::svc
