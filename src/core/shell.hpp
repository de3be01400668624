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
//   discarded, which is safe because the process was blind to them. Only a
//   process that declares an oracle (Process::has_oracle) is asked; any
//   other requires every input, so its WP2 shell behaves as WP1.
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
// A shell is a Moore machine. It has no object of its own: its Network
// holds it as an entry per input, per output branch and per shell in flat
// arrays, plus the cold data (name, process, observer, initial words) in
// side tables, and names it by a ShellId. Network::step advances every
// shell at once in two phases over the network's wire array:
//   eval   — drive input stop lines and output tokens from registered state
//            only; never reads a wire;
//   commit — sample the wires: arrivals, deliveries, then one firing
//            attempt per shell.
// So the order in which shells and relay stations are stepped within a
// phase never changes the result.
#pragma once

#include <cstdint>
#include <functional>

#include "core/process.hpp"
#include "core/wire.hpp"

namespace wp {

/// Largest input FIFO a shell accepts, in tokens. The network allocates
/// every input's FIFO words when the shell is added, so the bound caps that
/// allocation.
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

/// A shell's index in its Network, handed out by Network::add_shell.
using ShellId = std::uint32_t;

/// Called after every firing of a shell with (cycle, tag, output words).
using FireObserver =
    std::function<void(Cycle cycle, Tag tag, const Word* outs)>;

}  // namespace wp
