// The LID simulation kernel: the paper's two elements — a shell around
// every IP block and the relay stations that pipeline the wires — plus the
// wires between them, advanced by a two-phase clock. Every element is a
// Moore machine (eval drives wires from registered state, commit samples
// them), so the order within a phase is irrelevant and the kernel is
// deterministic.
//
// The network owns the per-cycle state of every element in flat arrays:
//   * the wires, addressed by WireId (names in a side table read only by
//     instrumentation, VCD);
//   * one entry per shell input: its FIFO, a window of one word pool shared
//     by all inputs, and its received count;
//   * one entry per output branch: its wire, its port's fired word and
//     whether that word is still pending there;
//   * one entry per shell: its input and branch ranges, firing counter,
//     undelivered count, halted flag, process and statistics;
//   * the relay stations by value, plain and noise stations apart.
// One cycle (step(); run() inlines the same passes) is a few straight
// passes over these arrays, in this order:
//   1. stations drive both their wires, branches their tokens (eval);
//   2. each input drives its stop line and takes this cycle's arrival;
//   3. each branch whose stop line is low takes its delivery;
//   4. each shell attempts one firing;
//   5. stations sample their wires (commit).
// A pass reads a wire only after every pass that drives it has run, so this
// is the two-phase clock, with each input's eval and commit in one pass.
// Shell objects are handles onto this state (see shell.hpp).
//
// run() is the one run loop, shared by LidSystem::run_until_halt and the
// stream harness. The firing pass keeps a running firing total and a count
// of halted shells, so the loop's stop test and its deadlock watchdog read
// two integers instead of walking the shells every cycle.
#pragma once

#include <cstdint>
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

  /// Adds a shell, with the connections it already has; returns a borrowed
  /// pointer (stable address). Allocates the shell's input FIFOs.
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
  std::size_t relay_station_count() const {
    return stations_.size() + noise_stations_.size();
  }
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
  friend class Shell;

  struct InputState {
    TokenRing fifo;        // a window of ring_words_
    Tag received = 0;      // tags handed out so far on this channel
    WireId wire;           // Shell::kUnconnected until connected
    std::uint32_t shell;   // owner, an index into shells_
    InputMask bit;         // this input's bit in its shell's masks
  };
  struct BranchState {
    WireId wire;
    std::uint32_t word;    // the port's fired word, an index into out_words_
    std::uint32_t shell;   // owner, an index into shells_
    bool pending;          // the last fired word is not yet delivered here
  };
  struct ShellState {
    Process* process;
    const Shell::FireObserver* observer;  // null when none is set
    std::uint32_t in_begin, in_end;       // range of inputs_
    std::uint32_t br_begin, br_end;       // range of branches_
    std::uint32_t out_begin;              // first output word in out_words_
    std::uint32_t undelivered = 0;  // branches still to accept the last word
    InputMask all_inputs;           // what a process without an oracle needs
    InputMask available = 0;        // non-empty FIFOs, gathered by arrivals
    Tag firing_counter = 0;
    bool halted;
    bool oracle;  // WP2 and the process declares an oracle
    bool poison;  // oracle and ShellOptions::poison_unrequired
    ShellStats stats;
  };

  void advance();  // one clock cycle, inlined into step() and run()

  // Called by a Shell handle once it is in this network.
  void connect_input(std::uint32_t shell, std::size_t port);
  void add_branch(std::uint32_t shell, const Shell::Branch& branch);
  void observe(std::uint32_t shell);
  const std::string& first_unconnected_shell() const;
  /// Pushes the channel's initial token into a connected input's FIFO.
  void seed(std::size_t input);

  std::vector<Wire> wires_;
  std::vector<std::string> wire_names_;
  std::vector<std::unique_ptr<Shell>> handles_;
  std::vector<ShellState> shells_;
  std::vector<InputState> inputs_;
  std::vector<BranchState> branches_;
  std::vector<Word> ring_words_;  // every input FIFO's storage
  std::vector<Word> in_words_;    // per input: the word of a firing
  std::vector<Word> out_words_;   // per output port: the last fired word
  std::vector<RelayStation> stations_;        // stall probability 0
  std::vector<RelayStation> noise_stations_;  // positive stall probability
  Cycle cycle_ = 0;
  std::uint64_t firings_ = 0;
  std::size_t halted_ = 0;
  std::size_t unconnected_ = 0;  // inputs not yet connected
};

}  // namespace wp
