// Allocation budgets of one tiny floorplan request (a 3x3 mesh annealed for
// 12 moves, the shape of the fabric benchmark's common request) and of
// decoding a daemon's batch of 16 of them. The
// binary replaces the global allocation functions with counting ones, so
// the count is exact and deterministic: it moves only when the code on a
// request's path allocates more or less. A request whose set-up work
// creeps back (a netlist text, a graph copy, a second label interning, a
// string map in the engine) shows up here before it shows up in latency.
//
// Every replaceable allocation function is replaced, so no toolchain's own
// operator new (a sanitizer runtime's included) is linked beside these.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "eval/evaluate.hpp"
#include "eval/request.hpp"
#include "svc/protocol.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded))
    return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace wp::eval {
namespace {

/// The fabric benchmark's tiny request: mesh-9, 12 throughput-driven moves.
EvalRequest tiny_request(std::uint64_t seed) {
  FloorplanJob job;
  job.topology.family = gen::TopologyFamily::kMesh;
  job.topology.num_nodes = 9;
  job.seed = seed;
  job.anneal.seed = seed + 1;
  job.anneal.iterations = 12;
  job.anneal.weight_throughput = 10.0;
  return EvalRequest(std::move(job));
}

/// Allocations of one evaluate() call, the request built beforehand.
long allocations_of(const EvalRequest& request) {
  const long before = g_allocations.load(std::memory_order_relaxed);
  const EvalReply reply = evaluate(request, {});
  const long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(reply.ok()) << reply.error.message;
  return after - before;
}

TEST(AllocBudget, TinyFloorplanRequestStaysWithinBudget) {
  // The first request pays for process-wide set-up (metric registration,
  // the trace ring), which no later request repeats.
  (void)allocations_of(tiny_request(1));
  // 267 before the request path stopped building what its reply never
  // reads; the budget keeps that from creeping back.
  constexpr long kBudget = 150;
  for (std::uint64_t seed = 2; seed < 6; ++seed) {
    const long count = allocations_of(tiny_request(seed));
    EXPECT_LE(count, kBudget) << "seed " << seed;
    RecordProperty("allocations_seed_" + std::to_string(seed),
                   static_cast<int>(count));
  }
}

TEST(AllocBudget, CounterSeesTheRequestPath) {
  // A budget check is only as good as its counter: a request must count
  // some allocations (its reply's placement, its engine), or the
  // replacement functions are not the ones the library calls.
  (void)allocations_of(tiny_request(1));
  EXPECT_GT(allocations_of(tiny_request(7)), 10);
}

TEST(AllocBudget, TinyBatchDecodeStaysWithinBudget) {
  // What a daemon allocates to decode a fabric batch: one vector (every
  // string of a tiny request fits its small buffer). A decode that built
  // a payload its tag does not name, or went through a temporary per
  // field, would show up here as allocations per request.
  std::vector<EvalRequest> batch;
  for (std::uint64_t seed = 1; seed <= 16; ++seed)
    batch.push_back(tiny_request(seed));
  const std::string payload = svc::encode_request_batch(batch);
  const long before = g_allocations.load(std::memory_order_relaxed);
  const std::vector<EvalRequest> decoded = svc::decode_request_batch(payload);
  const long count = g_allocations.load(std::memory_order_relaxed) - before;
  ASSERT_EQ(decoded.size(), batch.size());
  RecordProperty("allocations_tiny_batch_decode", static_cast<int>(count));
  // 1 at the time of writing.
  constexpr long kBudget = 2;
  EXPECT_LE(count, kBudget);
}

}  // namespace
}  // namespace wp::eval
