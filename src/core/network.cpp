#include "core/network.hpp"

#include "util/assert.hpp"

namespace wp {

WireId Network::make_wire(std::string name) {
  wires_.emplace_back();
  wire_names_.push_back(std::move(name));
  return static_cast<WireId>(wires_.size() - 1);
}

Shell* Network::add_shell(std::unique_ptr<Shell> shell) {
  WP_REQUIRE(shell != nullptr, "null shell");
  if (shell->halted()) ++halted_;
  shells_.push_back(std::move(shell));
  return shells_.back().get();
}

void Network::add_relay_station(WireId in, WireId out,
                                double stall_probability,
                                std::uint64_t seed) {
  WP_REQUIRE(in < wires_.size() && out < wires_.size(),
             "relay station wire id out of range");
  stations_.emplace_back(in, out, stall_probability, seed);
}

// The kernel's out-of-line per-cycle functions (Network::step and run,
// Shell::commit) are pinned to 64-byte boundaries: their speed depends on
// where their loops fall within a 64-byte line, and unpinned, a code-size
// change in files linked before them moved the stream-wp2 benchmark by 5%
// (latency_p1_ms, gcc 12.2 Release on a 4-vCPU Xeon). Shell::eval and the
// relay station's eval and commit are inlined here.
[[gnu::aligned(64)]]
void Network::step() {
  for (auto& shell : shells_) shell->eval(wires_);
  for (auto& station : stations_) station.eval(wires_);
  for (auto& shell : shells_) {
    // A process halts only by firing, so the halted count moves here too.
    if (shell->commit(wires_, cycle_)) {
      ++firings_;
      if (shell->halted()) ++halted_;
    }
  }
  for (auto& station : stations_) station.commit(wires_);
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
  for (auto& wire : wires_) wire = Wire{};
  firings_ = 0;
  halted_ = 0;
  for (auto& shell : shells_) {
    shell->reset();
    if (shell->halted()) ++halted_;
  }
  for (auto& station : stations_) station.reset();
  cycle_ = 0;
}

Wire& Network::wire(WireId id) {
  WP_REQUIRE(id < wires_.size(), "wire id out of range");
  return wires_[id];
}

const Wire& Network::wire(WireId id) const {
  WP_REQUIRE(id < wires_.size(), "wire id out of range");
  return wires_[id];
}

const std::string& Network::wire_name(WireId id) const {
  WP_REQUIRE(id < wires_.size(), "wire id out of range");
  return wire_names_[id];
}

}  // namespace wp
