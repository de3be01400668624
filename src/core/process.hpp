// The pearl (IP block) interface: a synchronous Moore process with named
// input/output ports, plus the paper's "oracle" — the communication profile
// that tells the WP2 wrapper which inputs the next transition actually reads.
//
// Contract that makes WP1/WP2 equivalence hold (and that the test suite
// checks on every block):
//   * fire() is called once per firing (tag); it receives one word per input
//     port and must write one word per output port. In the golden system a
//     firing is simply a clock cycle.
//   * required() may inspect its own registered state and may *peek* at the
//     values of current-tag tokens that have already arrived. It must be
//     monotone (seeing more tokens never removes requirements) and sound:
//     fire()'s result must not depend on any input the final required set
//     excluded. The default requires every input — that is exactly the WP1
//     wrapper.
//   * A class that overrides required() says so once, non-virtually, with
//     declare_oracle() in its constructor. The WP2 shell asks the oracle of
//     a declared process only; any other process is wrapped as under WP1,
//     which is always sound — a forgotten declaration costs throughput,
//     never correctness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/token.hpp"

namespace wp {

/// Bitmask over a process's input ports (bit i = input i). At most 32 ports.
using InputMask = std::uint32_t;

inline constexpr InputMask all_inputs_mask(std::size_t n) {
  return n >= 32 ? ~InputMask{0} : ((InputMask{1} << n) - 1);
}

/// A port declaration. reset_value is the word the corresponding golden
/// register holds at reset; it seeds the channel's single initial token.
struct PortSpec {
  std::string name;
  Word reset_value = 0;
};

/// What the oracle may look at: which current-tag tokens have arrived, and
/// their values (peeking is the paper's "processing signal" mechanism — e.g.
/// the ALU peeks at the opcode token from the CU to decide whether the
/// operand tokens from the RF are needed at all).
class PeekView {
 public:
  /// `values` holds one word per input; only those of `available` inputs
  /// are read.
  PeekView(InputMask available, const Word* values, std::size_t n)
      : available_(available), values_(values), n_(n) {}

  std::size_t size() const { return n_; }

  bool available(std::size_t i) const {
    return i < n_ && ((available_ >> i) & 1u) != 0;
  }

  /// Value of an arrived current-tag token; poison if not available.
  Word value(std::size_t i) const {
    return available(i) ? values_[i] : kPoisonWord;
  }

 private:
  InputMask available_;
  const Word* values_;
  std::size_t n_;
};

class Process {
 public:
  explicit Process(std::string name) : name_(std::move(name)) {}
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<PortSpec>& inputs() const { return inputs_; }
  const std::vector<PortSpec>& outputs() const { return outputs_; }

  std::size_t input_index(std::string_view port) const;
  std::size_t output_index(std::string_view port) const;

  /// True once the constructor called declare_oracle(): required() may
  /// then exclude inputs, and the WP2 shell calls it on every firing
  /// attempt.
  bool has_oracle() const { return has_oracle_; }

  /// The oracle. Default: every input is required (strict synchronicity).
  virtual InputMask required(const PeekView& peek) const {
    (void)peek;
    return all_inputs_mask(inputs_.size());
  }

  /// One synchronous transition. `in` has one word per input port (words of
  /// inputs the oracle excluded are poison and must not be read); `out` must
  /// be fully written (one word per output port).
  virtual void fire(const Word* in, Word* out) = 0;

  /// Returns the process to its power-on state.
  virtual void reset() = 0;

  /// True once the process has reached a terminal state (used by the kernel
  /// to stop the clock; only meaningful for designated "halting" processes).
  virtual bool halted() const { return false; }

 protected:
  /// Builders used by subclasses' constructors.
  std::size_t add_input(std::string port_name, Word reset_value = 0);
  std::size_t add_output(std::string port_name, Word reset_value = 0);
  /// Declares that required() gates the inputs; every class that overrides
  /// required() calls it.
  void declare_oracle() { has_oracle_ = true; }

 private:
  std::string name_;
  std::vector<PortSpec> inputs_;
  std::vector<PortSpec> outputs_;
  bool has_oracle_ = false;
};

/// Factory so a system description can be instantiated several times (once
/// per golden / WP1 / WP2 simulation) with fresh process state.
using ProcessFactory = std::function<std::unique_ptr<Process>()>;

}  // namespace wp
