// Span tracing — always-compilable, zero-cost-when-off timeline capture.
//
//   void anneal_run() {
//     WP_SPAN("anneal/run");
//     ...
//   }
//
// WP_SPAN(name) opens an RAII span that records a (name, begin, end)
// event when the scope exits. `name` must be a string literal (or any
// pointer outliving the tracer) — only the pointer is stored, never a
// copy, so an enabled span costs two clock reads and one ring push.
// Runtime gating: spans record only while the global Tracer is enabled;
// when it is not (the default), the constructor is one relaxed atomic
// load and a branch. Compile-time gating: building with -DWP_OBS_TRACING=0
// (CMake -DWP_TRACING=OFF) expands WP_SPAN to nothing at all, so the hot
// paths carry literally zero tracing code in that configuration.
//
// Events land in fixed-capacity per-thread ring buffers (wraparound
// overwrites the oldest event — tracing never blocks or allocates on the
// record path after a thread's first span).
// export_chrome_trace() renders every thread's ring as chrome://tracing /
// Perfetto JSON ("traceEvents" with ph:"X" complete events).
//
// Environment wiring: WIREPIPE_TRACE=out.json enables the tracer at
// process start and writes the trace file at exit — attach a timeline to
// any bench, test or daemon without touching its code.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#ifndef WP_OBS_TRACING
#define WP_OBS_TRACING 1
#endif

namespace wp::obs {

struct TraceEvent {
  const char* name = nullptr;  ///< borrowed; must outlive the tracer
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// One thread's span ring. Pushes come only from the owning thread;
/// the tiny per-ring mutex exists so an exporter on another thread reads
/// a consistent ring (one span per traced scope, so the lock is uncontended
/// and nanosecond-cheap next to the work being traced).
class TraceRing {
 public:
  TraceRing(std::uint32_t thread_index, std::size_t capacity);

  void push(const TraceEvent& event);

  std::uint32_t thread_index() const { return thread_index_; }
  /// Events in record order (oldest first).
  std::vector<TraceEvent> events() const;

 private:
  const std::uint32_t thread_index_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;  ///< fixed capacity, set at construction
  std::size_t next_ = 0;          ///< ring_[next_ % capacity] is written next
  std::uint64_t pushed_ = 0;

  friend class Tracer;
};

class Tracer {
 public:
  static Tracer& global();

  /// Starts capturing. Per-thread rings hold `ring_capacity` events each;
  /// rings already registered are cleared. Idempotent while enabled
  /// (capacity changes apply to rings created afterwards).
  void enable(std::size_t ring_capacity = kDefaultRingCapacity);
  void disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one finished span into this thread's ring (creating and
  /// registering the ring on the thread's first span).
  void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns);

  /// Renders every ring as one chrome://tracing JSON document
  /// ({"traceEvents": [...], "displayTimeUnit": "ms"}). Timestamps are
  /// microseconds relative to the earliest captured event. Safe while
  /// tracing continues (per-ring locks); pair with disable() for a stable
  /// snapshot.
  void export_chrome_trace(std::ostream& os) const;

  /// Drops every ring (threads re-register on their next span).
  void clear();

  /// WIREPIPE_TRACE=path: enable now, write the chrome trace at process
  /// exit. Called once from a static initializer; harmless when the
  /// variable is unset.
  static void init_from_env();

  static constexpr std::size_t kDefaultRingCapacity = 1 << 14;

 private:
  TraceRing& ring_for_this_thread();

  std::atomic<bool> enabled_{false};
  /// Bumped by enable()/clear(); threads holding a ring from an older
  /// generation re-register on their next span instead of writing into a
  /// ring no export will ever see.
  std::atomic<std::uint64_t> generation_{1};
  mutable std::mutex mutex_;  ///< guards rings_ registration/export
  std::vector<std::shared_ptr<TraceRing>> rings_;
  std::size_t ring_capacity_ = kDefaultRingCapacity;
  std::uint32_t next_thread_index_ = 0;
};

/// RAII span: captures begin at construction, pushes the event at scope
/// exit. Cost when the tracer is disabled: one relaxed load + branch.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::global().enabled()) {
      name_ = name;
      begin_ns_ = now_ns_();
    }
  }
  ~Span() {
    if (name_ != nullptr)
      Tracer::global().record(name_, begin_ns_, now_ns_());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static std::uint64_t now_ns_();

  const char* name_ = nullptr;  ///< nullptr = tracing was off at entry
  std::uint64_t begin_ns_ = 0;
};

}  // namespace wp::obs

#if WP_OBS_TRACING
#define WP_OBS_SPAN_CONCAT2(a, b) a##b
#define WP_OBS_SPAN_CONCAT(a, b) WP_OBS_SPAN_CONCAT2(a, b)
/// Statement macro: opens a span covering the rest of the enclosing scope.
#define WP_SPAN(name) \
  ::wp::obs::Span WP_OBS_SPAN_CONCAT(wp_obs_span_, __LINE__)(name)
#else
#define WP_SPAN(name) ((void)0)
#endif
