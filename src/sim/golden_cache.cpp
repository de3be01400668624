#include "sim/golden_cache.hpp"

#include <iterator>

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace wp::sim {

std::uint64_t trace_fingerprint(const Trace& trace) {
  std::uint64_t h = 0x5afe601dULL;
  for (const auto& [stream, values] : trace) {
    h = hash_combine(h, hash_string(stream));
    h = hash_combine(h, values.size());
    for (const Word v : values) h = hash_combine(h, v);
  }
  return h;
}

GoldenCache::GoldenCache(std::size_t max_entries)
    : max_entries_(max_entries) {}

std::shared_ptr<const GoldenRecord> GoldenCache::get_or_run(
    const std::string& key, const ComputeFn& compute) {
  WP_REQUIRE(compute != nullptr, "GoldenCache needs a compute function");
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // mark recent
      slot = it->second.slot;
    } else {
      ++stats_.misses;
      lru_.push_front(key);
      slot = std::make_shared<Slot>();
      entries_[key] = Entry{slot, lru_.begin()};
      if (max_entries_ > 0 && entries_.size() > max_entries_) {
        // Evict the least-recently-used *finished* entry; in-flight runs
        // must stay mapped so racing callers join them instead of
        // duplicating the simulation (the cap is soft under contention).
        for (auto it = std::prev(lru_.end());; --it) {
          auto entry = entries_.find(*it);
          if (entry->second.slot->done) {
            entries_.erase(entry);
            lru_.erase(it);
            ++stats_.evictions;
            break;
          }
          if (it == lru_.begin()) break;
        }
      }
    }
  }
  // Outside the lock: the first caller simulates, concurrent callers of the
  // same key block here on the in-flight run (call_once), other keys
  // proceed independently. If compute throws, the once_flag stays unset:
  // call_once turns each blocked waiter into the next runner (so a
  // deterministic failure re-throws per caller — acceptable, failures are
  // configuration errors), and the entry is dropped from the map below so
  // a failing key neither occupies capacity nor poisons later retries.
  try {
    std::call_once(slot->once, [&] {
      std::shared_ptr<const GoldenRecord> record;
      {
        WP_SPAN("sim/golden_run");
        record = std::make_shared<GoldenRecord>(compute());
      }
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.golden_runs;
      slot->record = std::move(record);
      slot->done = true;
    });
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    // Drop the failed key — unless a promoted waiter has meanwhile
    // completed the run successfully (call_once hands the callable to the
    // next blocked caller), in which case the slot now holds a valid
    // record that must stay cached.
    if (it != entries_.end() && it->second.slot == slot && !slot->done) {
      lru_.erase(it->second.lru_pos);
      entries_.erase(it);
    }
    throw;
  }
  WP_CHECK(slot->record != nullptr, "golden compute left no record");
  return slot->record;
}

GoldenCache::Stats GoldenCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

}  // namespace wp::sim
