// EvalClient / WorkerFleet — the client side of the evaluation service.
//
// EvalClient speaks the frame protocol to one EvalServer endpoint:
// connect (one attempt; the server must already listen), evaluate a
// request batch (input order preserved), scrape stats, ping, shut the
// server down. Each is one round trip over one private send/expect pair,
// which alone turns EOF, a kError frame and a wrong frame type into
// ProtocolError.
//
// WorkerFleet runs a sharded fabric: it forks N wirepipe_evald worker
// processes on per-worker ports, round-robin shards a request list across
// them (request i → worker i mod N), and merges the replies back into
// input order — so a sharded sweep or ensemble is bit-identical to the
// single-process run (requests are self-contained and seed-derived; no
// result depends on which worker ran it). evaluate_sharded is also
// available against caller-owned clients, which is how the tests drive
// two in-process servers without forking.
//
// start() forks every worker, then polls each worker's socket with
// doubling pauses (0.1 ms up to 1 ms, 5 s in all) and returns as soon as
// every worker listens. A connection counts only when its peer process
// (SO_PEERCRED) is that worker, so a stale listener left on a worker's
// path is never adopted. A worker that exits before it listens fails
// start() at once, naming the worker and its exit status. stop() sends
// every connected worker a kShutdown frame, kills every worker that did
// not acknowledge one (a worker without a client included) and reaps them
// all, so it cannot wait on a daemon that will never exit; a failed
// start() runs it before it throws. A worker acknowledging kShutdown
// removes its own socket file; for a killed one, stop() removes it only
// when a connection whose peer is that worker proved the file its own
// (a worker still booting gets until start()'s deadline to listen for
// that proof), so a worker that never bound leaves any file there alone.
//
// Sharding is threadless: send every shard, then read every reply in
// worker order. A server reads a whole frame before it evaluates, so every
// send completes without the caller reading, and no deadlock is possible.
// Each client is its own connection, so clients must be distinct. A failed
// shard still lets every other reply be read; the first failure in worker
// order is rethrown.
#pragma once

#include <signal.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/request.hpp"
#include "svc/ports.hpp"
#include "svc/protocol.hpp"

namespace wp::svc {

class EvalClient {
 public:
  EvalClient() = default;
  ~EvalClient();

  EvalClient(const EvalClient&) = delete;
  EvalClient& operator=(const EvalClient&) = delete;
  EvalClient(EvalClient&& other) noexcept;

  /// Connects to `socket_path` in one attempt. Throws
  /// ProtocolError(kInternal) when nothing listens there.
  void connect(const std::string& socket_path);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Eval-batch frame out, reply-batch frame back, replies in request
  /// order. A kError frame (the batch could not be decoded) raises
  /// ProtocolError with its code.
  std::vector<eval::EvalReply> evaluate(
      const std::vector<eval::EvalRequest>& requests);

  /// Liveness probe; false when the server is gone.
  bool ping();

  /// Scrapes the server's stats document (kStatsRequest → kStatsReply):
  /// one JSON object, schema wirepipe-stats/1. Throws ProtocolError when
  /// the server predates the stats frame or the connection fails.
  std::string stats_json();

  /// Sends kShutdown and waits for the acknowledgement, then closes the
  /// connection. False when none came: the server never took the frame.
  bool shutdown_server();

 private:
  friend std::vector<eval::EvalReply> evaluate_sharded(
      std::vector<EvalClient*> clients,
      const std::vector<eval::EvalRequest>& requests);
  friend class WorkerFleet;

  /// One connect attempt that keeps the connection only when the process
  /// listening on `socket_path` is `server_pid`. Never throws: a worker
  /// that is still booting is the common case, not an error.
  bool try_connect(const std::string& socket_path, pid_t server_pid);

  /// The two halves of every round trip. send writes one frame; expect
  /// reads the answer and returns its payload when it is a `type` frame,
  /// else throws ProtocolError (EOF, kError with its code, wrong type).
  void send(FrameType type, const std::string& payload);
  std::string expect(FrameType type);
  /// expect(kReplyBatch), decoded: the replies to `count` requests.
  std::vector<eval::EvalReply> receive_replies(std::size_t count);

  int fd_ = -1;
  std::uint64_t sent_ns_ = 0;  ///< when send() last wrote a frame
};

struct FleetOptions {
  std::size_t workers = 4;
  /// Path of the wirepipe_evald binary to exec.
  std::string evald_path;
  /// Worker i binds socket_path(base_port + i); scope the fleet with
  /// $WIREPIPE_SOCKET_DIR or a distinct base port.
  port_name base_port = kPortShardBase;
  /// Evaluation threads per worker (--workers flag of wirepipe_evald).
  std::size_t threads_per_worker = 1;
  /// Extra argv entries for every worker (e.g. "--quiet").
  std::vector<std::string> extra_args;
};

class WorkerFleet {
 public:
  explicit WorkerFleet(FleetOptions options);
  ~WorkerFleet();  ///< stops the fleet if still running

  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  /// Forks and execs the worker daemons and connects a client to each as
  /// soon as it listens. Throws ProtocolError when a worker exits first
  /// or does not listen within 5 s; every worker is stopped by then.
  void start();
  /// Sends kShutdown to every connected worker, kills every worker that
  /// did not acknowledge it, then reaps them all and removes the socket
  /// file of each killed worker proven to listen on it. Idempotent.
  void stop();

  std::size_t workers() const { return clients_.size(); }
  /// Direct access to worker `i`'s client (latency benches drive each
  /// worker from its own thread).
  EvalClient& client(std::size_t i) { return clients_[i]; }

  /// Round-robin shard + send-all-then-read dispatch + input-order merge.
  std::vector<eval::EvalReply> evaluate_sharded(
      const std::vector<eval::EvalRequest>& requests);

 private:
  using Clock = std::chrono::steady_clock;

  /// Forks workers [first, first + count), then connects each one's client
  /// as soon as that worker listens (see the file comment).
  void launch(std::size_t first, std::size_t count);
  /// Polls worker `w`'s socket until its client connects to that worker
  /// (true), the worker exits (false, `exited` names it) or deadline_
  /// passes (false).
  bool await_listener(std::size_t w, siginfo_t& exited);

  FleetOptions options_;
  std::vector<EvalClient> clients_;
  std::vector<pid_t> pids_;  ///< 0 for a worker not forked yet
  std::vector<std::string> paths_;  ///< per worker: its socket path
  Clock::time_point deadline_;      ///< the last launch's listen budget
  bool running_ = false;
};

/// Shards `requests` round-robin over `clients` (request i → client
/// i mod N), sends each shard as one batch, reads the replies in worker
/// order and merges them into input order. The clients must be distinct.
/// Exposed separately so tests can drive in-process servers.
std::vector<eval::EvalReply> evaluate_sharded(
    std::vector<EvalClient*> clients,
    const std::vector<eval::EvalRequest>& requests);

}  // namespace wp::svc
