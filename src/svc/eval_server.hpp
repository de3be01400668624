// EvalServer — the wirepipe evaluation daemon.
//
// Serves eval::evaluate over the frame protocol on an AF_UNIX stream
// socket: an accept thread hands each connection to its own reader
// thread, each eval-batch frame is decoded into EvalRequests and fanned
// over the server's ThreadPool (the identical eval::evaluate_batch the
// in-process adapters call), and the replies go back as one reply-batch
// frame in request order. Each server owns one SimOracle, so goldens are
// cached in memory per server process.
//
// Failure containment, layer by layer:
//   * a request that fails to *evaluate* → a kError reply in the batch
//     (eval::evaluate never throws);
//   * a frame whose *payload* fails to decode (or a server-bound frame
//     of a client-bound type) → one kError frame, the connection stays up;
//   * a *framing* violation (bad magic/version/checksum, oversize,
//     mid-frame EOF) → best-effort kError frame, then the connection is
//     dropped (the byte stream cannot be resynchronized);
//   * a peer gone before its reply → that connection ends (EPIPE, never
//     SIGPIPE); the server itself never goes down for any input.
// One count per event: Stats is the only home of the per-server counts
// (the scrape's "server" section; the registry keeps only batch_ns and
// stats_scrapes), and send_error counts each error frame before writing
// it, so a client that read it sees it in stats().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/oracle.hpp"
#include "svc/protocol.hpp"
#include "util/thread_pool.hpp"

namespace wp::svc {

struct EvalServerOptions {
  /// Endpoint; empty picks ports::default_socket_path(). A stale socket
  /// file at the path is unlinked on start.
  std::string socket_path;
  /// Evaluation worker threads (the pool batches fan over); 0 = hardware
  /// concurrency.
  std::size_t workers = 0;
};

class EvalServer {
 public:
  explicit EvalServer(EvalServerOptions options = {});
  ~EvalServer();  ///< stops the server if still running

  EvalServer(const EvalServer&) = delete;
  EvalServer& operator=(const EvalServer&) = delete;

  /// Binds, listens, and starts the accept thread. Throws ProtocolError
  /// (kInternal) when the socket cannot be bound.
  void start();

  /// Blocks until a kShutdown frame arrives (or stop() is called from
  /// another thread).
  void wait();

  /// Closes the listener and every live connection, joins all threads.
  /// Idempotent.
  void stop();

  bool running() const { return running_.load(); }
  const std::string& socket_path() const { return options_.socket_path; }

  struct Stats {
    std::uint64_t connections = 0;    ///< accepted connections
    std::uint64_t frames = 0;         ///< frames read successfully
    std::uint64_t requests = 0;       ///< evaluations performed
    std::uint64_t error_frames = 0;   ///< kError frames (counted, then sent)
    std::uint64_t dropped_connections = 0;  ///< closed on framing violation
  };
  Stats stats() const;

  /// The kStatsRequest scrape document (schema wirepipe-stats/1): server
  /// counters, the oracle's golden-cache stats (the only home of those
  /// counts), and the full obs metrics registry, as one JSON object.
  std::string stats_json() const;

 private:
  void accept_loop();
  void handle_connection(int fd);
  /// One frame's dispatch; returns false when the connection must close.
  bool handle_frame(int fd, const Frame& frame);
  /// Adds `n` to one Stats count under the lock.
  void count(std::uint64_t Stats::*field, std::uint64_t n = 1);
  /// The one error-frame writer: counts the frame, then writes it.
  void send_error(int fd, eval::ErrorCode code, const std::string& message);

  EvalServerOptions options_;
  sim::SimOracle oracle_;
  ThreadPool pool_;

  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::thread accept_thread_;

  mutable std::mutex mutex_;  ///< guards connections_/threads_/stats_
  std::condition_variable shutdown_cv_;
  std::vector<int> connection_fds_;
  std::vector<std::thread> connection_threads_;
  Stats stats_;
};

}  // namespace wp::svc
