// EvalClient / WorkerFleet — the client side of the evaluation service.
//
// EvalClient speaks the frame protocol to one EvalServer endpoint:
// connect (with retry, for daemons still booting), evaluate a request
// batch (one eval-batch frame out, one reply-batch frame back, input
// order preserved), ping, ask the server to shut down.
//
// WorkerFleet runs a sharded fabric: it forks N wirepipe_evald worker
// processes on per-worker ports, round-robin shards a request list across
// them (request i → worker i mod N), dispatches every shard concurrently,
// and merges the replies back into input order — so a sharded sweep or
// ensemble is bit-identical to the single-process run (requests are
// self-contained and seed-derived; no result depends on which worker ran
// it). evaluate_sharded is also available against caller-owned clients,
// which is how the tests drive two in-process servers without forking.
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "eval/request.hpp"
#include "svc/ports.hpp"

namespace wp::svc {

class EvalClient {
 public:
  EvalClient() = default;
  ~EvalClient();

  EvalClient(const EvalClient&) = delete;
  EvalClient& operator=(const EvalClient&) = delete;
  EvalClient(EvalClient&& other) noexcept;
  EvalClient& operator=(EvalClient&& other) noexcept;

  /// Connects to `socket_path`, retrying `retries` times `retry_ms` apart
  /// (a daemon that was just spawned needs a moment to bind). Throws
  /// ProtocolError(kInternal) when every attempt fails.
  void connect(const std::string& socket_path, int retries = 50,
               int retry_ms = 100);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// One round trip: eval-batch frame out, reply-batch frame back.
  /// Replies are in request order. A kError frame from the server (the
  /// batch could not be decoded) raises ProtocolError with its code.
  std::vector<eval::EvalReply> evaluate(
      const std::vector<eval::EvalRequest>& requests);

  /// Liveness probe; false when the server is gone.
  bool ping();

  /// Scrapes the server's stats document (kStatsRequest → kStatsReply):
  /// one JSON object, schema wirepipe-stats/1. Throws ProtocolError when
  /// the server predates the stats frame or the connection fails.
  std::string stats_json();

  /// Sends kShutdown and waits for the acknowledgement.
  void shutdown_server();

 private:
  int fd_ = -1;
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

  /// Forks and execs the worker daemons, connects a client to each.
  void start();
  /// Shuts every worker down (kShutdown frame, then waitpid). Idempotent.
  void stop();

  std::size_t workers() const { return clients_.size(); }
  /// Direct access to worker `i`'s client (latency benches drive each
  /// worker from its own thread).
  EvalClient& client(std::size_t i) { return clients_[i]; }

  /// Round-robin shard + concurrent dispatch + input-order merge.
  std::vector<eval::EvalReply> evaluate_sharded(
      const std::vector<eval::EvalRequest>& requests);

 private:
  FleetOptions options_;
  std::vector<EvalClient> clients_;
  std::vector<pid_t> pids_;
  std::vector<std::string> socket_paths_;
  bool running_ = false;
};

/// Shards `requests` round-robin over `clients` (request i → client
/// i mod N), dispatches each shard as one batch from its own thread, and
/// merges replies into input order. Exposed separately so tests can drive
/// in-process servers.
std::vector<eval::EvalReply> evaluate_sharded(
    std::vector<EvalClient*> clients,
    const std::vector<eval::EvalRequest>& requests);

}  // namespace wp::svc
