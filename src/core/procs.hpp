// A small zoo of ready-made processes: token sources/sinks and arithmetic
// pipes for examples and unit tests, plus RandomMooreProcess — a randomly
// generated Moore machine with a *sound by construction* communication
// oracle, used by the property-based equivalence tests.
#pragma once

#include <cstdint>
#include <vector>

#include "core/process.hpp"
#include "util/rng.hpp"

namespace wp {

/// Emits value, value+stride, value+2*stride, … on its single output "out".
/// Halts (optionally) after `limit` firings.
class CounterSource final : public Process {
 public:
  CounterSource(std::string name, Word start = 0, Word stride = 1,
                std::uint64_t limit = 0);

  void fire(const Word* in, Word* out) override;
  bool halted() const override;

 private:
  Word stride_;
  std::uint64_t limit_;
  Word next_ = 0;
  std::uint64_t fired_ = 0;
};

/// Single-input single-output identity ("wire with a register").
class IdentityProcess final : public Process {
 public:
  explicit IdentityProcess(std::string name, Word reset_out = 0);
  void fire(const Word* in, Word* out) override;
};

/// out = a + b each firing.
class AdderProcess final : public Process {
 public:
  explicit AdderProcess(std::string name);
  void fire(const Word* in, Word* out) override;
};

/// Accumulator with feedback through the network: out = acc; acc += in.
/// Used to build explicit loops in the loop-formula experiments.
class AccumulatorProcess final : public Process {
 public:
  explicit AccumulatorProcess(std::string name);
  void fire(const Word* in, Word* out) override;

 private:
  Word acc_ = 0;
};

/// Captures everything it receives; halts after `limit` firings.
class SinkProcess final : public Process {
 public:
  SinkProcess(std::string name, std::uint64_t limit = 0);
  void fire(const Word* in, Word* out) override;
  bool halted() const override;

  const std::vector<Word>& received() const { return received_; }

 private:
  std::uint64_t limit_;
  std::vector<Word> received_;
};

/// A process that alternates between "reading" and "ignoring" its second
/// input with a fixed duty cycle: input "a" is always required, input "b"
/// only every `period`-th firing. The simplest system whose WP2 throughput
/// beats WP1 — used by unit tests and the quickstart example.
class DutyCycleProcess final : public Process {
 public:
  DutyCycleProcess(std::string name, std::uint64_t period);

  InputMask required(const PeekView& peek) const override;
  void fire(const Word* in, Word* out) override;

 private:
  std::uint64_t period_;
  std::uint64_t phase_ = 0;
};

/// A randomly generated Moore machine over `num_inputs` inputs and
/// `num_outputs` outputs with `num_states` states. Each state has a random
/// required-input mask; optionally, one designated *gate* input is peeked
/// and its low bit adds an extra mask (exercising the "processing signal"
/// path). fire() reads exactly the inputs of the final mask, so the oracle
/// is sound by construction; outputs and the next state are avalanche hashes
/// of (state, read inputs), so any protocol bug shows up as an equivalence
/// failure with overwhelming probability.
class RandomMooreProcess final : public Process {
 public:
  RandomMooreProcess(std::string name, std::size_t num_inputs,
                     std::size_t num_outputs, std::size_t num_states,
                     Rng& rng, bool use_peek_gate = true);

  InputMask required(const PeekView& peek) const override;
  void fire(const Word* in, Word* out) override;

 private:
  InputMask final_mask(InputMask base, Word gate_value) const;

  struct StateEntry {
    InputMask base_mask = 0;
    InputMask extra_mask = 0;  // added when the gate input's low bit is set
  };

  std::vector<StateEntry> table_;
  std::size_t gate_input_ = 0;  // always in base_mask when gating is enabled
  bool use_peek_gate_;
  std::size_t state_ = 0;
};

/// Mixes 64-bit values (splitmix64 finalizer); shared by RandomMooreProcess
/// and tests that need an order-sensitive digest of a stream.
Word hash_mix(Word x);

}  // namespace wp
