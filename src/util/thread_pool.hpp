// Fixed-size thread pool for the exploration engine.
//
// parallel_for is the library's one in-process fan-out primitive: multi-seed
// anneals, relay-station sweeps, ensemble samples and evaluation batches
// all call it directly, each body writing its own input-order slot. A
// fixed set of workers, FIFO task dispatch, future-based results and loud
// exception propagation; no work stealing, no priorities — exploration
// workloads are coarse (one task = one annealing restart or one simulated
// sweep point), so a single shared queue is never the bottleneck.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace wp {

class ThreadPool {
 public:
  /// Starts `threads` workers; 0 picks std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains nothing: outstanding tasks are finished, queued tasks are still
  /// executed, then the workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a nullary callable; the returned future carries its result or
  /// its exception. Tasks start in FIFO order.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Runs body(i) for every i in [begin, end), partitioned into contiguous
  /// chunks across the workers. Blocks until every chunk finished; if a
  /// body invocation threw, the rest of that chunk is skipped, the other
  /// chunks still complete, and the first (by chunk order) exception is
  /// rethrown to the caller.
  ///
  /// The chunking picks a few chunks per worker, so uneven per-index costs
  /// still balance while dispatch overhead stays negligible for coarse
  /// bodies like annealing restarts.
  ///
  /// Re-entrant: when called from a task already running on this pool the
  /// range executes inline on the calling worker instead — blocking on
  /// futures there could deadlock once every worker waits on chunks none
  /// of them can dequeue.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Process-wide default pool, created on first use with the hardware
  /// concurrency. Intended for benches and examples; library entry points
  /// accept an explicit pool so tests can bound parallelism.
  static ThreadPool& shared();

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  /// Queue entries keep their enqueue timestamp so the obs layer can
  /// report dispatch latency ("util/pool/task_wait_ns") alongside the live
  /// queue-depth gauge.
  struct QueuedTask {
    std::function<void()> run;
    std::uint64_t enqueue_ns = 0;
  };

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
};

}  // namespace wp
