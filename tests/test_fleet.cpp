// WorkerFleet suite: real wirepipe_evald daemons forked by the fleet.
// Sharded replies must be byte-identical to the in-process batch; a worker
// that exits before it listens (a missing binary, a wrapper that quits for
// one socket) must fail start() at once with its index and exit status and
// leave no child behind; and a stale listener on a worker's socket path
// must never be adopted in place of the worker.
//
// Each test binds its sockets under a directory of its own
// ($WIREPIPE_SOCKET_DIR from mkdtemp), so parallel ctest runs never share
// an endpoint. The daemon's path comes from the build (WP_EVALD_PATH); the
// suite skips when the examples are not built.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "eval/evaluate.hpp"
#include "eval/request.hpp"
#include "svc/eval_client.hpp"
#include "svc/ports.hpp"
#include "svc/protocol.hpp"

namespace wp::svc {
namespace {

std::vector<eval::EvalRequest> tiny_floorplan_batch(int count) {
  std::vector<eval::EvalRequest> requests;
  for (int i = 0; i < count; ++i) {
    eval::FloorplanJob job;
    job.topology.family = gen::TopologyFamily::kMesh;
    job.topology.num_nodes = 9;
    job.seed = 50 + static_cast<std::uint64_t>(i);
    job.anneal.iterations = 12;
    job.anneal.weight_throughput = 10.0;
    requests.emplace_back(std::move(job));
  }
  return requests;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

class Fleet : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef WP_EVALD_PATH
    GTEST_SKIP() << "wirepipe_evald is not built (WP_BUILD_EXAMPLES=OFF)";
#else
    evald_ = WP_EVALD_PATH;
    char dir[] = "/tmp/wp-fleet-XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr) << std::strerror(errno);
    dir_ = dir;
    ::setenv("WIREPIPE_SOCKET_DIR", dir_.c_str(), 1);
#endif
  }

  void TearDown() override {
    if (dir_.empty()) return;
    // Every fleet is gone by now: no child may be left, running or not.
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD) << "a worker process outlived its fleet";
    ::unsetenv("WIREPIPE_SOCKET_DIR");
    std::filesystem::remove_all(dir_);
  }

  FleetOptions options(std::size_t workers) const {
    FleetOptions options;
    options.workers = workers;
    options.evald_path = evald_;
    options.extra_args = {"--quiet"};
    return options;
  }

  /// An executable shell script in the test's directory.
  std::string script(const std::string& name, const std::string& body) {
    const std::string path = dir_ + "/" + name;
    std::ofstream(path) << "#!/bin/sh\n" << body;
    ::chmod(path.c_str(), 0755);
    return path;
  }

  std::string evald_;
  std::string dir_;
};

TEST_F(Fleet, ShardedRepliesAreByteIdenticalToInProcess) {
  WorkerFleet fleet(options(2));
  fleet.start();
  ASSERT_EQ(fleet.workers(), 2u);

  std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(5);
  eval::FloorplanJob bad;
  bad.topology.num_nodes = -1;
  requests.emplace_back(std::move(bad));
  const std::vector<eval::EvalReply> sharded = fleet.evaluate_sharded(requests);
  const std::vector<eval::EvalReply> local = eval::evaluate_batch(requests, {});
  ASSERT_EQ(sharded.size(), requests.size());
  EXPECT_FALSE(sharded.back().ok());
  EXPECT_EQ(encode_reply_batch(sharded), encode_reply_batch(local));

  fleet.stop();
  fleet.stop();  // idempotent
}

TEST_F(Fleet, MissingBinaryFailsAtOnceWithItsStatus) {
  FleetOptions missing = options(2);
  missing.evald_path = dir_ + "/no-such-evald";
  WorkerFleet fleet(missing);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    fleet.start();
    ADD_FAILURE() << "a fleet of a missing binary started";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 0"), std::string::npos) << what;
    EXPECT_NE(what.find("status 127"), std::string::npos) << what;
  }
  EXPECT_LT(seconds_since(t0), 1.0);
  EXPECT_EQ(fleet.workers(), 0u);
}

TEST_F(Fleet, WorkerThatExitsFailsStartAndTheRestAreStopped) {
  // Worker 0 (socket ...-16.sock) quits; worker 1 is a real daemon that
  // listens but never gets a client. start() must throw at once, and
  // cleaning up must neither hang on worker 1 nor leave it running. A
  // plain file sits on worker 0's path: that worker never binds, so the
  // file is not its own and must survive the fleet.
  const std::string foreign = socket_path(kPortShardBase);
  std::ofstream(foreign) << "not a socket";
  const std::string wrapper =
      script("exit-for-worker-0", "case \"$2\" in *-16.sock) exit 3 ;; esac\n"
                                  "exec " + evald_ + " \"$@\"\n");
  FleetOptions half = options(2);
  half.evald_path = wrapper;
  const auto t0 = std::chrono::steady_clock::now();
  {
    WorkerFleet fleet(half);
    try {
      fleet.start();
      ADD_FAILURE() << "a fleet with an exited worker started";
    } catch (const ProtocolError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("worker 0"), std::string::npos) << what;
      EXPECT_NE(what.find("status 3"), std::string::npos) << what;
    }
  }  // ~WorkerFleet returns; TearDown checks that no child is left
  EXPECT_LT(seconds_since(t0), 1.0);
  // Worker 1 was killed; the fleet proved it listened on its socket, so
  // the socket file is gone with it.
  const std::string killed = socket_path(kPortShardBase + 1);
  EXPECT_FALSE(std::filesystem::exists(killed)) << killed << " outlived it";
  EXPECT_TRUE(std::filesystem::exists(foreign)) << foreign << " was removed";
}

TEST_F(Fleet, StaleListenerIsNeverAdopted) {
  // A listener this process left on every worker's path: each client must
  // end up on its own daemon, which answers once the stale listeners are
  // closed (a client on a stale listener would then read EOF).
  constexpr std::size_t kWorkers = 2;
  std::vector<int> stale;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    stale.push_back(open_unix_socket(
        socket_path(kPortShardBase + static_cast<port_name>(w)), true));
    ASSERT_GE(stale.back(), 0) << std::strerror(errno);
  }
  WorkerFleet fleet(options(kWorkers));
  fleet.start();
  for (const int fd : stale) ::close(fd);
  for (std::size_t w = 0; w < kWorkers; ++w)
    EXPECT_TRUE(fleet.client(w).ping()) << "worker " << w;
  const std::vector<eval::EvalRequest> requests = tiny_floorplan_batch(2);
  EXPECT_EQ(encode_reply_batch(fleet.evaluate_sharded(requests)),
            encode_reply_batch(eval::evaluate_batch(requests, {})));
}

}  // namespace
}  // namespace wp::svc
