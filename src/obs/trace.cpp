#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace wp::obs {

// -------------------------------------------------------------- TraceRing

TraceRing::TraceRing(std::uint32_t thread_index, std::size_t capacity)
    : thread_index_(thread_index) {
  ring_.resize(std::max<std::size_t>(1, capacity));
}

void TraceRing::push(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_[next_] = event;
  next_ = (next_ + 1) % ring_.size();
  ++pushed_;
}

std::vector<TraceEvent> TraceRing::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  const std::size_t capacity = ring_.size();
  const std::size_t held = std::min<std::uint64_t>(pushed_, capacity);
  out.reserve(held);
  // Oldest surviving event first: when wrapped, that is ring_[next_].
  const std::size_t start = pushed_ <= capacity ? 0 : next_;
  for (std::size_t i = 0; i < held; ++i)
    out.push_back(ring_[(start + i) % capacity]);
  return out;
}

// ----------------------------------------------------------------- Tracer

Tracer& Tracer::global() {
  // Intentionally leaked (same reason as Registry::global()): spans can
  // close during exit-time destruction, after any destructible static
  // would already be gone.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

namespace {
/// This thread's ring. Holding the shared_ptr (not a raw pointer) means a
/// concurrent enable()/clear() — which drops the tracer's references —
/// can never leave this thread writing freed memory: a stale ring stays
/// alive, its events simply no longer appear in exports. The generation
/// stamp detects staleness so the thread re-registers on its next span.
thread_local std::shared_ptr<TraceRing> t_ring;
thread_local std::uint64_t t_generation = 0;
}  // namespace

void Tracer::enable(std::size_t ring_capacity) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_capacity_ = ring_capacity;
    rings_.clear();  // registered threads re-register at the new capacity
    generation_.fetch_add(1, std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

TraceRing& Tracer::ring_for_this_thread() {
  const std::uint64_t generation =
      generation_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  auto ring = std::make_shared<TraceRing>(next_thread_index_++,
                                          ring_capacity_);
  rings_.push_back(ring);
  t_ring = std::move(ring);
  t_generation = generation;
  return *t_ring;
}

void Tracer::record(const char* name, std::uint64_t begin_ns,
                    std::uint64_t end_ns) {
  if (!enabled()) return;  // raced a disable(); drop silently
  if (t_ring == nullptr ||
      t_generation != generation_.load(std::memory_order_relaxed))
    ring_for_this_thread();
  TraceEvent event;
  event.name = name;
  event.begin_ns = begin_ns;
  event.end_ns = end_ns;
  t_ring->push(event);
}

void Tracer::export_chrome_trace(std::ostream& os) const {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings = rings_;
  }
  // Rebase timestamps so the trace starts at t=0 regardless of the
  // steady_clock epoch.
  std::uint64_t epoch_ns = UINT64_MAX;
  std::vector<std::vector<TraceEvent>> per_ring;
  per_ring.reserve(rings.size());
  for (const std::shared_ptr<TraceRing>& ring : rings) {
    per_ring.push_back(ring->events());
    for (const TraceEvent& event : per_ring.back())
      epoch_ns = std::min(epoch_ns, event.begin_ns);
  }
  if (epoch_ns == UINT64_MAX) epoch_ns = 0;

  json::JsonWriter json(os);
  json.begin_object();
  json.field("displayTimeUnit", "ms");
  json.key("traceEvents").begin_array();
  for (std::size_t r = 0; r < rings.size(); ++r) {
    for (const TraceEvent& event : per_ring[r]) {
      json.begin_object();
      json.field("name", event.name)
          .field("ph", "X")
          .field("ts", static_cast<double>(event.begin_ns - epoch_ns) / 1e3)
          .field("dur",
                 static_cast<double>(event.end_ns - event.begin_ns) / 1e3)
          .field("pid", 1)
          .field("tid", rings[r]->thread_index());
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  os << "\n";
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
}

// -------------------------------------------------------------------- env

namespace {

std::string g_trace_path;  ///< set once by init_from_env before atexit

void write_trace_at_exit() {
  Tracer& tracer = Tracer::global();
  tracer.disable();
  std::ofstream file(g_trace_path);
  if (!file) {
    std::fprintf(stderr, "[ERROR] WIREPIPE_TRACE: cannot write %s\n",
                 g_trace_path.c_str());
    return;
  }
  tracer.export_chrome_trace(file);
}

struct TraceEnvInit {
  TraceEnvInit() { Tracer::init_from_env(); }
};
// Every binary linking wp_core gets the env hook; a no-op when the
// variable is unset.
const TraceEnvInit g_trace_env_init;

}  // namespace

void Tracer::init_from_env() {
  const char* path = std::getenv("WIREPIPE_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  if (!g_trace_path.empty()) return;  // already initialized
  g_trace_path = path;
  global().enable();
  std::atexit(write_trace_at_exit);
}

// ------------------------------------------------------------------- Span

std::uint64_t Span::now_ns_() { return now_ns(); }

}  // namespace wp::obs
