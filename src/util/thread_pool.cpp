#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace wp {

namespace {
/// Pool whose worker is executing on this thread, if any.
thread_local const ThreadPool* t_current_pool = nullptr;

// Pool observability, shared across pool instances (the exploration
// workloads use one pool at a time; per-pool split isn't worth per-name
// registrations). Tasks are coarse — one task = one annealing restart or
// sweep chunk — so two histogram records per task are lost in the noise.
struct PoolMetrics {
  obs::Counter& tasks;
  obs::Gauge& queue_depth;
  obs::Histogram& wait_ns;
  obs::Histogram& run_ns;

  static PoolMetrics& get() {
    static PoolMetrics metrics{
        obs::Registry::global().counter("util/pool/tasks"),
        obs::Registry::global().gauge("util/pool/queue_depth"),
        obs::Registry::global().histogram("util/pool/task_wait_ns"),
        obs::Registry::global().histogram("util/pool/task_run_ns")};
    return metrics;
  }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this]() { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  PoolMetrics& metrics = PoolMetrics::get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    WP_REQUIRE(!stop_, "submit on a stopping ThreadPool");
    queue_.push_back(QueuedTask{std::move(task), obs::now_ns()});
    metrics.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  metrics.tasks.inc();
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      metrics.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
    const std::uint64_t start_ns = obs::now_ns();
    metrics.wait_ns.record(start_ns - task.enqueue_ns);
    task.run();  // packaged_task captures any exception into its future
    metrics.run_ns.record(obs::now_ns() - start_ns);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  if (t_current_pool == this) {
    // Already on one of our own workers: blocking on chunk futures could
    // deadlock (every worker waiting, none free to dequeue), so degrade to
    // an inline loop on this thread.
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t count = end - begin;
  // A few chunks per worker so uneven per-index costs still balance, while
  // keeping dispatch overhead negligible for coarse tasks.
  const std::size_t chunks = std::min(count, size() * 4);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;

  std::vector<std::future<void>> pending;
  pending.reserve(chunks);
  for (std::size_t lo = begin; lo < end; lo += chunk_size) {
    const std::size_t hi = std::min(end, lo + chunk_size);
    pending.push_back(submit([lo, hi, &body]() {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }));
  }

  std::exception_ptr first_error;
  for (auto& future : pending) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace wp
