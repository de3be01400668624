// Tagged-signal model of the paper's §1: a signal is a sequence of events
// (v, t); wire pipelining interleaves the valid events with void symbols τ.
//
// On a physical channel only the value and a valid bit travel ("it is not
// necessary to send the tag together with the signal, but only a bit
// indicating its validity"); tags are reconstructed by per-channel counters
// because valid events stay ordered.
#pragma once

#include <cstdint>

namespace wp {

/// Payload word carried by every channel. 64 bits is wide enough to pack any
/// of the case-study bundles (instruction words, operands, control).
using Word = std::uint64_t;

/// Clock-cycle index of the simulation kernel.
using Cycle = std::uint64_t;

/// Firing tag: the k-th valid event on a channel has tag k.
using Tag = std::uint64_t;

/// Pattern written into the value of void tokens and of unread inputs so
/// accidental reads are conspicuous in traces and tests.
inline constexpr Word kPoisonWord = 0xDEADBEEFDEADBEEFULL;

/// One event on a wire: either a valid value or the void symbol τ.
struct Token {
  Word value = kPoisonWord;
  bool valid = false;

  /// The void symbol τ.
  static constexpr Token tau() { return Token{}; }

  /// A valid event carrying v.
  static constexpr Token make(Word v) { return Token{v, true}; }
};

}  // namespace wp
