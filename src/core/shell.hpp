// The wrapper ("shell") that encloses an unmodified IP block — the paper's
// central object, in both variants:
//
//   WP1 (strict, Carloni-style): τ-filtered inputs are buffered in FIFOs;
//   the process fires only when *all* inputs carrying the current tag are
//   present; on a stall, τ is emitted on every output.
//
//   WP2 (this paper): an oracle — Process::required(), possibly peeking at
//   already-arrived current-tag tokens ("processing signals") — names the
//   inputs the next transition actually reads. The shell fires as soon as
//   those are present; tokens whose tag is older than the firing counter are
//   discarded, which is safe because the process was blind to them.
//
// Tags never travel on wires, and the FIFOs do not store them either: each
// input keeps a received counter (the k-th valid token on a channel has tag
// k) and the shell keeps a firing counter, per the paper's "initialized
// counter that records the lag". Valid tokens stay in order and a stale one
// is discarded on arrival, which can only happen while its FIFO is empty,
// so a FIFO always holds the consecutive tags received − size … received − 1
// and a non-empty FIFO's front carries the current tag. Availability is
// therefore "non-empty", kept as one InputMask per firing attempt.
//
// Finite FIFOs create back-pressure: the shell asserts stop on an input when
// its FIFO is full; relay stations propagate the stop toward the source.
// Each channel carries exactly one initial token (the reset value of the
// producer's golden output register), which gives the marked-graph semantics
// behind the paper's Th = m/(m+n) loop formula.
//
// A shell is a Moore machine stepped by Network::step in two phases over
// the network's wire array:
//   eval(wires)          — drive output tokens and input stop lines from
//                          registered state only; never reads a wire;
//   commit(wires, cycle) — sample the wires, update the FIFOs and maybe
//                          fire.
// So the order in which shells and relay stations are stepped within a
// phase never changes the result.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "core/token_ring.hpp"
#include "core/wire.hpp"

namespace wp {

/// Largest input FIFO a shell accepts, in tokens. The shell allocates every
/// input's ring up front, so the bound caps that allocation.
inline constexpr std::size_t kMaxFifoCapacity = std::size_t{1} << 20;

struct ShellOptions {
  /// false → WP1 strict wrapper; true → WP2 wrapper with oracle.
  bool use_oracle = false;
  /// Input FIFO capacity in tokens, 1..kMaxFifoCapacity. Back-pressure
  /// point.
  std::size_t fifo_capacity = 16;
  /// When using the oracle, pass poison instead of the real value for
  /// available-but-not-required inputs, so an unsound oracle (a transition
  /// that reads an input it did not request) diverges loudly in equivalence
  /// tests instead of silently working.
  bool poison_unrequired = true;
};

/// Per-shell statistics, reported by the benches.
struct ShellStats {
  std::uint64_t firings = 0;           ///< completed transitions
  std::uint64_t stalls_input = 0;      ///< cycles stalled waiting for tokens
  std::uint64_t stalls_output = 0;     ///< cycles stalled by back-pressure
  std::uint64_t discarded_tokens = 0;  ///< stale tokens dropped (WP2 only)
};

class Shell {
 public:
  Shell(std::string name, std::unique_ptr<Process> process,
        ShellOptions options);
  Shell(const Shell&) = delete;
  Shell& operator=(const Shell&) = delete;

  /// Connects input port `port` to `wire`. `initial_value` is the reset
  /// value of the producing golden register; it seeds the channel's single
  /// initial token (tag 0). Every input must be connected exactly once.
  void connect_input(std::size_t port, WireId wire, Word initial_value);

  /// Adds a fan-out branch of output port `port`. A fired token counts as
  /// delivered only once every branch has accepted it. Ports with no branch
  /// are silently dropped.
  void add_output_wire(std::size_t port, WireId wire);

  /// Called after every firing with (cycle, tag, output words).
  using FireObserver =
      std::function<void(Cycle cycle, Tag tag, const Word* outs)>;
  void set_fire_observer(FireObserver observer);

  /// Phase 1: drive output tokens and input stop lines.
  void eval(std::vector<Wire>& wires) {
    for (auto& input : in_) {
      WP_CHECK(input.wire != kUnconnected,
               "unconnected input port on " + name_);
      input.stop_driven = input.fifo.full();
      wires[input.wire].stop = input.stop_driven;
    }
    // A branch is undelivered only while its port's fired word is pending.
    for (const auto& branch : branches_) {
      Wire& wire = wires[branch.wire];
      wire.value = fire_out_[branch.port];
      wire.valid = !branch.delivered;
    }
  }
  /// Phase 2: sample wires, accept tokens, try to fire. Returns true iff
  /// the process fired this cycle.
  bool commit(const std::vector<Wire>& wires, Cycle cycle);
  /// Power-on state: process reset, initial tokens re-seeded.
  void reset();

  const std::string& name() const { return name_; }
  const Process& process() const { return *process_; }
  Process& process() { return *process_; }
  const ShellStats& stats() const { return stats_; }
  Tag firing_counter() const { return firing_counter_; }
  /// The process's halted(), read after each firing and on reset: a
  /// process halts only by firing.
  bool halted() const { return halted_; }

  /// Current occupancy of one input FIFO (tests / ablation).
  std::size_t fifo_size(std::size_t port) const;

 private:
  static constexpr WireId kUnconnected = ~WireId{0};

  struct InputState {
    TokenRing fifo;              // preallocated ring: no allocation per token
    WireId wire = kUnconnected;
    bool stop_driven = false;    // what we drove on the stop line
    Tag received = 0;            // tags handed out so far on this channel
    Word initial = kPoisonWord;  // the channel's initial token
  };
  struct OutputBranch {
    WireId wire;
    std::uint32_t port;
    bool delivered;  // false while the port's fired word is pending here
  };

  std::string name_;
  std::unique_ptr<Process> process_;
  ShellOptions options_;
  std::vector<InputState> in_;
  std::vector<OutputBranch> branches_;
  std::size_t undelivered_ = 0;  // branches still to accept the last firing
  Tag firing_counter_ = 0;
  bool halted_ = false;
  ShellStats stats_;
  FireObserver observer_;

  // Per firing: the input words (also the oracle's peek values) and the
  // output words, which stay in place as the pending tokens.
  std::vector<Word> fire_in_;
  std::vector<Word> fire_out_;
};

}  // namespace wp
