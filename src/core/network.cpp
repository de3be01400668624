#include "core/network.hpp"

#include "util/assert.hpp"

namespace wp {

Wire* Network::make_wire(std::string name) {
  wires_.emplace_back(std::move(name));
  return &wires_.back();
}

Shell* Network::add_shell(std::unique_ptr<Shell> shell) {
  WP_REQUIRE(shell != nullptr, "null shell");
  if (shell->halted()) ++halted_;
  shells_.push_back(std::move(shell));
  return shells_.back().get();
}

void Network::add_relay_station(Wire* in, Wire* out,
                                double stall_probability,
                                std::uint64_t seed) {
  stations_.emplace_back(in, out, stall_probability, seed);
}

// The kernel's per-cycle functions (Network::step and run, Shell::eval,
// commit and try_fire, RelayStation::eval and commit) are pinned to 64-byte
// boundaries: their speed depends on where their loops fall within a
// 64-byte line, and unpinned, a code-size change in files linked before
// them moved the stream-wp2 benchmark by 5% (latency_p1_ms, gcc 12.2
// Release on a 4-vCPU Xeon).
[[gnu::aligned(64)]]
void Network::step() {
  for (auto& shell : shells_) shell->eval();
  for (auto& station : stations_) station.eval();
  for (auto& shell : shells_) {
    // A process halts only by firing, so the halted count moves here too.
    if (shell->commit(cycle_)) {
      ++firings_;
      if (shell->halted()) ++halted_;
    }
  }
  for (auto& station : stations_) station.commit();
  ++cycle_;
}

[[gnu::aligned(64)]]
std::uint64_t Network::run(std::uint64_t max_cycles,
                           std::size_t halted_shells) {
  std::uint64_t executed = 0;
  std::uint64_t idle = 0;
  std::uint64_t last_firings = firings_;
  while (executed < max_cycles && halted_ < halted_shells) {
    step();
    ++executed;
    if (firings_ != last_firings) {
      last_firings = firings_;
      idle = 0;
    } else if (++idle >= kDeadlockWindow) {
      WP_CHECK(false, "deadlock watchdog: no progress for " +
                          std::to_string(idle) + " cycles at cycle " +
                          std::to_string(cycle_));
    }
  }
  return executed;
}

void Network::reset() {
  for (auto& wire : wires_) wire.reset();
  firings_ = 0;
  halted_ = 0;
  for (auto& shell : shells_) {
    shell->reset();
    if (shell->halted()) ++halted_;
  }
  for (auto& station : stations_) station.reset();
  cycle_ = 0;
}

Wire* Network::wire_at(std::size_t index) {
  WP_REQUIRE(index < wires_.size(), "wire index out of range");
  return &wires_[index];
}

}  // namespace wp
