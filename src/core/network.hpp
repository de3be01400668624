// The LID simulation kernel: the paper's two elements — a shell around
// every IP block and the relay stations that pipeline the wires — plus the
// wires between them, advanced by a two-phase clock. Every element is a
// Moore machine (eval drives wires from registered state, commit samples
// them), so the order within a phase is irrelevant and the kernel is
// deterministic.
//
// The network is the one owner of every element. It keeps the per-cycle
// state in flat arrays:
//   * the wires, addressed by WireId (names in a side table read only by
//     instrumentation, VCD);
//   * one entry per shell input: its FIFO, a window of one word pool shared
//     by all inputs, and its received count;
//   * one entry per output branch: its wire, its port's fired word and
//     whether that word is still pending there;
//   * one entry per shell, addressed by ShellId: its input and branch
//     ranges, firing counter, undelivered count, halted flag, process and
//     statistics;
//   * the relay stations by value, plain and noise stations apart.
// A shell's cold data — its name, the process it owns and its fire
// observer — lives in side tables beside these arrays. A network has no
// reset: a new run builds a new network.
// One cycle (step(); run() inlines the same passes) is a few straight
// passes over these arrays, in this order:
//   1. stations drive both their wires, branches their tokens (eval);
//   2. each input drives its stop line and takes this cycle's arrival;
//   3. each branch whose stop line is low takes its delivery;
//   4. each shell attempts one firing;
//   5. stations sample their wires (commit).
// A pass reads a wire only after every pass that drives it has run, so this
// is the two-phase clock, with each input's eval and commit in one pass.
//
// run() is the one run loop, shared by LidSystem::run_until_halt and the
// stream harness. The firing pass keeps a running firing total and a count
// of halted shells, so the loop's stop test and its deadlock watchdog read
// two integers instead of walking the shells every cycle.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/relay_station.hpp"
#include "core/shell.hpp"
#include "core/token_ring.hpp"
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

  /// Adds a shell around `process` (WP1 or WP2 per `options`) with no
  /// connections yet; returns its id. Allocates the shell's input FIFOs.
  ShellId add_shell(std::string name, std::unique_ptr<Process> process,
                    const ShellOptions& options);

  /// Connects input `port` of `shell` to `wire`. `initial_value` is the
  /// reset value of the producing golden register; it seeds the channel's
  /// single initial token (tag 0). Every input must be connected exactly
  /// once before the network steps.
  void connect_input(ShellId shell, std::size_t port, WireId wire,
                     Word initial_value);

  /// Adds a fan-out branch of output `port` of `shell`. A fired token
  /// counts as delivered only once every branch has accepted it. Ports with
  /// no branch are silently dropped.
  void add_output_wire(ShellId shell, std::size_t port, WireId wire);

  /// Calls `observer` after every firing of `shell`; an empty one clears it.
  void set_fire_observer(ShellId shell, FireObserver observer);

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

  std::size_t relay_station_count() const {
    return stations_.size() + noise_stations_.size();
  }
  std::size_t wire_count() const { return wires_.size(); }

  // One shell's state. A returned reference stays valid until the network
  // adds a shell.
  const ShellStats& stats(ShellId shell) const;
  Tag firing_counter(ShellId shell) const;
  /// The process's halted(), read on adding the shell and after each
  /// firing: a process halts only by firing.
  bool halted(ShellId shell) const;
  /// Current occupancy of one input FIFO (tests / ablation).
  std::size_t fifo_size(ShellId shell, std::size_t port) const;
  const Process& process(ShellId shell) const;
  const std::string& shell_name(ShellId shell) const;

  /// One wire, for instrumentation (VCD sampling) and for tests that
  /// drive wires by hand between steps.
  Wire& wire(WireId id);
  const Wire& wire(WireId id) const;
  const std::string& wire_name(WireId id) const;

 private:
  static constexpr WireId kUnconnected = ~WireId{0};

  struct InputState {
    TokenRing fifo;        // a window of ring_words_
    Tag received = 0;      // tags handed out so far on this channel
    WireId wire;           // kUnconnected until connected
    ShellId shell;         // owner
    InputMask bit;         // this input's bit in its shell's masks
  };
  struct BranchState {
    WireId wire;
    std::uint32_t word;    // the port's fired word, an index into out_words_
    ShellId shell;         // owner
    bool pending;          // the last fired word is not yet delivered here
  };
  struct ShellState {
    Process* process;
    const FireObserver* observer;  // into observers_; null when none is set
    std::uint32_t in_begin, in_end;  // range of inputs_
    std::uint32_t br_begin, br_end;  // range of branches_
    std::uint32_t out_begin;         // first output word in out_words_
    std::uint32_t undelivered = 0;  // branches still to accept the last word
    InputMask all_inputs;           // what a process without an oracle needs
    InputMask available = 0;        // non-empty FIFOs, gathered by arrivals
    Tag firing_counter = 0;
    bool halted;
    bool oracle;  // WP2 and the process declares an oracle
    bool poison;  // oracle and ShellOptions::poison_unrequired
    ShellStats stats;
  };

  void advance();  // one clock cycle, inline in step() and run()

  const ShellState& shell_state(ShellId shell) const;  // checks the id
  const std::string& first_unconnected_shell() const;

  std::vector<Wire> wires_;
  std::vector<std::string> wire_names_;
  std::vector<ShellState> shells_;
  std::vector<InputState> inputs_;
  std::vector<BranchState> branches_;
  std::vector<Word> ring_words_;  // every input FIFO's storage
  std::vector<Word> in_words_;    // per input: the word of a firing
  std::vector<Word> out_words_;   // per output port: the last fired word
  // Cold data: per shell, then per input.
  std::vector<std::string> shell_names_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::deque<FireObserver> observers_;  // a deque: ShellState points in
  std::vector<RelayStation> stations_;        // stall probability 0
  std::vector<RelayStation> noise_stations_;  // positive stall probability
  Cycle cycle_ = 0;
  std::uint64_t firings_ = 0;
  std::size_t halted_ = 0;
  std::size_t unconnected_ = 0;  // inputs not yet connected
};

}  // namespace wp
