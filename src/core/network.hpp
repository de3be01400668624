// The LID simulation kernel: the paper's two elements — a shell around
// every IP block and the relay stations that pipeline the wires — plus the
// wires between them, advanced by a two-phase clock. step() runs eval over
// the shells, eval over the stations, commit over the shells and commit
// over the stations. Every element is a Moore machine (eval drives wires
// from registered state, commit samples them), so the order within a
// phase is irrelevant and the kernel is deterministic.
//
// The wires are one flat array addressed by WireId; their names live in a
// side table read only by instrumentation (VCD). Relay stations are held
// by value and their eval/commit are inline, so a step is four loops over
// contiguous state plus one out-of-line commit per shell.
//
// run() is the one run loop, shared by LidSystem::run_until_halt and the
// stream harness. The shell commits keep a running firing total and a
// count of halted shells, so the loop's stop test and its deadlock
// watchdog read two integers instead of walking the shells every cycle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/relay_station.hpp"
#include "core/shell.hpp"
#include "core/wire.hpp"

namespace wp {

class Network {
 public:
  /// run() throws ContractViolation once no shell has fired for this many
  /// consecutive cycles: a protocol deadlock fails loudly, not by timeout.
  static constexpr std::uint64_t kDeadlockWindow = 100000;

  Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Creates a wire owned by the network; returns its id.
  WireId make_wire(std::string name = {});

  /// Adds a shell; returns a borrowed pointer (stable address).
  Shell* add_shell(std::unique_ptr<Shell> shell);

  /// Adds a relay station in → out. A positive `stall_probability` makes
  /// it a noise station with its own Rng seeded by `seed`.
  void add_relay_station(WireId in, WireId out,
                         double stall_probability = 0.0,
                         std::uint64_t seed = 0);

  /// Advances one clock cycle.
  void step();

  /// Steps until at least `halted_shells` shells have halted or
  /// `max_cycles` elapse; returns the number of cycles executed. Throws
  /// ContractViolation when the firing total stays unchanged for
  /// kDeadlockWindow consecutive cycles.
  std::uint64_t run(std::uint64_t max_cycles, std::size_t halted_shells);

  /// Resets every shell, relay station and wire, the cycle counter and the
  /// firing and halted counts.
  void reset();

  Cycle cycle() const { return cycle_; }
  std::size_t shell_count() const { return shells_.size(); }
  std::size_t relay_station_count() const { return stations_.size(); }
  std::size_t wire_count() const { return wires_.size(); }
  /// Firings of every shell since construction or reset().
  std::uint64_t firings() const { return firings_; }
  /// Shells whose process has halted.
  std::size_t halted_shells() const { return halted_; }

  /// One wire, for instrumentation (VCD sampling) and for tests that
  /// drive wires by hand between steps.
  Wire& wire(WireId id);
  const Wire& wire(WireId id) const;
  const std::string& wire_name(WireId id) const;

 private:
  std::vector<Wire> wires_;
  std::vector<std::string> wire_names_;
  std::vector<std::unique_ptr<Shell>> shells_;
  std::vector<RelayStation> stations_;
  Cycle cycle_ = 0;
  std::uint64_t firings_ = 0;
  std::size_t halted_ = 0;
};

}  // namespace wp
