// Tests of the parallel exploration engine's foundation: ThreadPool
// ordering/exception/parallel_for semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace wp {
namespace {

TEST(ThreadPool, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto future = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> pending;
  for (int i = 0; i < 32; ++i)
    pending.push_back(pool.submit([i, &order]() { order.push_back(i); }));
  for (auto& f : pending) f.get();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([]() { return 1; }).get(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kBegin = 3, kEnd = 1003;
  std::vector<std::atomic<int>> hits(kEnd);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(kBegin, kEnd,
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kEnd; ++i)
    EXPECT_EQ(hits[i].load(), i >= kBegin ? 1 : 0) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyRangeIsANoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&calls](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&completed](std::size_t i) {
                          if (i == 17) throw std::runtime_error("boom");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // Every other chunk still executed: the pool finishes the whole range
  // before rethrowing, only the throwing chunk's tail is skipped (with 4
  // workers: 16 chunks of ceil(100/16) = 7 indices).
  EXPECT_GE(completed.load(), 93);
  EXPECT_LE(completed.load(), 99);
}

TEST(ThreadPool, ManyConcurrentSubmitsAllExecute) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> pending;
  for (int i = 1; i <= 200; ++i)
    pending.push_back(pool.submit([i, &sum]() { sum.fetch_add(i); }));
  for (auto& f : pending) f.get();
  EXPECT_EQ(sum.load(), 200 * 201 / 2);
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // parallel_for called from a task already on the pool must not block on
  // futures no free worker could ever dequeue — a single-worker pool makes
  // the deadlock deterministic if the inline fallback regresses.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  auto outer = pool.submit([&pool, &inner]() {
    pool.parallel_for(0, 50, [&inner](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(outer.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  outer.get();
  EXPECT_EQ(inner.load(), 50);
}

TEST(ThreadPool, SharedPoolIsAStableSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().size(), 1u);
}

}  // namespace
}  // namespace wp
