#include "core/network.hpp"

#include "util/assert.hpp"

namespace wp {

WireId Network::make_wire(std::string name) {
  wires_.emplace_back();
  wire_names_.push_back(std::move(name));
  return static_cast<WireId>(wires_.size() - 1);
}

ShellId Network::add_shell(std::string name,
                           std::unique_ptr<Process> process,
                           const ShellOptions& options) {
  WP_REQUIRE(process != nullptr, "shell requires a process");
  const std::size_t capacity = options.fifo_capacity;
  WP_REQUIRE(capacity >= 1 && capacity <= kMaxFifoCapacity,
             "FIFO capacity must be in [1, " +
                 std::to_string(kMaxFifoCapacity) + "]");
  const auto id = static_cast<ShellId>(shells_.size());
  const std::size_t inputs = process->inputs().size();

  ShellState state;
  state.process = process.get();
  state.observer = nullptr;
  state.in_begin = static_cast<std::uint32_t>(inputs_.size());
  for (std::size_t port = 0; port < inputs; ++port) {
    inputs_.push_back({TokenRing(ring_words_.size() + port * capacity,
                                 capacity),
                       0, kUnconnected, id, InputMask{1} << port});
  }
  state.in_end = static_cast<std::uint32_t>(inputs_.size());
  state.all_inputs = all_inputs_mask(inputs);
  unconnected_ += inputs;
  state.br_begin = state.br_end = static_cast<std::uint32_t>(branches_.size());
  state.out_begin = static_cast<std::uint32_t>(out_words_.size());
  state.halted = process->halted();
  state.oracle = options.use_oracle && process->has_oracle();
  state.poison = state.oracle && options.poison_unrequired;
  shells_.push_back(state);
  if (state.halted) ++halted_;

  ring_words_.resize(ring_words_.size() + inputs * capacity, kPoisonWord);
  in_words_.resize(inputs_.size(), 0);
  out_words_.resize(out_words_.size() + process->outputs().size(), 0);
  shell_names_.push_back(std::move(name));
  processes_.push_back(std::move(process));
  observers_.emplace_back();
  return id;
}

void Network::connect_input(ShellId shell, std::size_t port, WireId wire,
                            Word initial_value) {
  const ShellState& state = shell_state(shell);
  WP_REQUIRE(port < state.in_end - state.in_begin,
             "input port index out of range");
  WP_REQUIRE(wire < wires_.size(), "input wire id out of range");
  const std::size_t input = state.in_begin + port;
  WP_REQUIRE(inputs_[input].wire == kUnconnected,
             "input port connected twice: " + shell_names_[shell] + "." +
                 processes_[shell]->inputs()[port].name);
  inputs_[input].wire = wire;
  --unconnected_;
  // The channel's initial token (tag 0).
  inputs_[input].fifo.push_back(ring_words_.data(), initial_value);
  inputs_[input].received = 1;
}

void Network::add_output_wire(ShellId shell, std::size_t port, WireId wire) {
  WP_REQUIRE(port < shell_state(shell).process->outputs().size(),
             "output port index out of range");
  WP_REQUIRE(wire < wires_.size(), "output wire id out of range");
  // A shell's branches stay contiguous: insert at the end of its range and
  // shift the ranges of the shells after it. Nothing is pending yet, so the
  // new branch counts as delivered.
  ShellState& state = shells_[shell];
  branches_.insert(branches_.begin() + state.br_end,
                   {wire, state.out_begin + static_cast<std::uint32_t>(port),
                    shell, false});
  ++state.br_end;
  for (std::size_t k = shell + 1; k < shells_.size(); ++k) {
    ++shells_[k].br_begin;
    ++shells_[k].br_end;
  }
}

void Network::set_fire_observer(ShellId shell, FireObserver observer) {
  shell_state(shell);
  observers_[shell] = std::move(observer);
  shells_[shell].observer = observers_[shell] ? &observers_[shell] : nullptr;
}

const std::string& Network::first_unconnected_shell() const {
  for (const InputState& input : inputs_)
    if (input.wire == kUnconnected) return shell_names_[input.shell];
  WP_CHECK(false, "no unconnected input");
  return shell_names_.front();  // unreachable
}

void Network::add_relay_station(WireId in, WireId out,
                                double stall_probability,
                                std::uint64_t seed) {
  WP_REQUIRE(in < wires_.size() && out < wires_.size(),
             "relay station wire id out of range");
  // Plain and noise stations are kept apart, so the plain stations' eval
  // loop draws nothing and calls nothing.
  (stall_probability > 0.0 ? noise_stations_ : stations_)
      .emplace_back(in, out, stall_probability, seed);
}

// One clock cycle: every per-cycle pass. It is always inline, in both
// step() and run(), so the run loop makes no call per cycle. The relay
// station's eval and commit are inline here too.
[[gnu::always_inline]] inline void Network::advance() {
  Word* const ring = ring_words_.data();

  WP_CHECK(unconnected_ == 0,
           "unconnected input port on " + first_unconnected_shell());

  // Eval: every element drives its wires from registered state. Producers
  // first, so the input pass below can also take this cycle's arrivals.
  for (const auto& station : stations_) station.drive(wires_);
  for (auto& station : noise_stations_) station.eval(wires_);
  // A branch is valid only while its port's fired word is pending there.
  for (const BranchState& branch : branches_) {
    Wire& wire = wires_[branch.wire];
    wire.value = out_words_[branch.word];
    wire.valid = branch.pending;
  }

  // Each input drives its stop line, then commits its arrival: a token is
  // transferred iff the input drove stop low; tags are assigned by arrival
  // order. Each shell's availability mask is gathered here: a non-empty
  // FIFO's front is the current-tag token.
  for (InputState& input : inputs_) {
    Wire& wire = wires_[input.wire];
    const bool stop = input.fifo.full();
    wire.stop = stop;
    ShellState& shell = shells_[input.shell];
    if (wire.valid && !stop) {
      if (input.received++ < shell.firing_counter) {
        // The process already advanced past this tag without reading the
        // channel (WP2 blindness): discard on arrival.
        ++shell.stats.discarded_tokens;
      } else {
        WP_CHECK(!input.fifo.full(),
                 "input FIFO overflow on " + shell_names_[input.shell]);
        input.fifo.push_back(ring, wire.value);
      }
    }
    if (!input.fifo.empty()) {
      WP_CHECK(input.received - input.fifo.size() == shell.firing_counter,
               "stale token survived purge on " +
                   shell_names_[input.shell]);
      shell.available |= input.bit;
    }
  }

  // Commit: every stop line is driven now. Deliveries: a pending word is
  // transferred on each branch whose stop line is low this cycle.
  for (BranchState& branch : branches_) {
    if (branch.pending && !wires_[branch.wire].stop) {
      branch.pending = false;
      --shells_[branch.shell].undelivered;
    }
  }

  // One firing attempt per shell.
  for (ShellState& shell : shells_) {
    const InputMask available = shell.available;
    shell.available = 0;
    if (shell.halted) continue;
    if (shell.undelivered != 0) {
      ++shell.stats.stalls_output;
      continue;
    }

    InputState* const in = inputs_.data() + shell.in_begin;
    Word* const in_words = in_words_.data() + shell.in_begin;
    const std::size_t n = shell.in_end - shell.in_begin;
    InputMask required = shell.all_inputs;
    if (shell.oracle) {
      // The oracle may peek at the current-tag tokens that have arrived.
      for (std::size_t i = 0; i < n; ++i)
        in_words[i] = (available >> i) & 1u ? in[i].fifo.front(ring)
                                            : kPoisonWord;
      required = shell.process->required(PeekView(available, in_words, n));
    }
    if ((required & ~available) != 0) {
      ++shell.stats.stalls_input;
      continue;  // required current-tag token missing: stall, emit τ
    }

    // Fire: consume the current-tag tokens (read or dead), transition.
    // Without an oracle every input is required, so every one is here.
    for (std::size_t i = 0; i < n; ++i) {
      const InputMask bit = InputMask{1} << i;
      if (shell.oracle && (available & bit) == 0) {
        // Will arrive later; discarded on arrival.
        WP_CHECK((required & bit) == 0, "firing without a required input");
        in_words[i] = kPoisonWord;
        continue;
      }
      in_words[i] = shell.poison && (required & bit) == 0
                        ? kPoisonWord
                        : in[i].fifo.front(ring);
      in[i].fifo.pop_front();
    }

    Word* const out_words = out_words_.data() + shell.out_begin;
    shell.process->fire(in_words, out_words);
    for (std::uint32_t b = shell.br_begin; b < shell.br_end; ++b)
      branches_[b].pending = true;
    shell.undelivered = shell.br_end - shell.br_begin;
    shell.halted = shell.process->halted();

    const Tag tag = shell.firing_counter++;
    ++shell.stats.firings;
    ++firings_;
    if (shell.halted) ++halted_;  // a process halts only by firing
    if (shell.observer != nullptr) (*shell.observer)(cycle_, tag, out_words);
  }

  for (auto& station : stations_) station.commit(wires_);
  for (auto& station : noise_stations_) station.commit(wires_);
  ++cycle_;
}

// The kernel's out-of-line per-cycle functions, step() and run(), each
// holding an inline copy of the cycle, are pinned to 64-byte boundaries:
// their speed depends on where their loops fall in a 64-byte line, and
// unpinned, a code-size change in files linked before them moved the
// stream-wp2 benchmark by 5% (latency_p1_ms, gcc 12.2 Release, 4-vCPU Xeon).
[[gnu::aligned(64)]]
void Network::step() { advance(); }

[[gnu::aligned(64)]]
std::uint64_t Network::run(std::uint64_t max_cycles,
                           std::size_t halted_shells) {
  std::uint64_t executed = 0;
  std::uint64_t idle = 0;
  std::uint64_t last_firings = firings_;
  while (executed < max_cycles && halted_ < halted_shells) {
    advance();
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

const Network::ShellState& Network::shell_state(ShellId shell) const {
  WP_REQUIRE(shell < shells_.size(), "shell id out of range");
  return shells_[shell];
}

const ShellStats& Network::stats(ShellId shell) const {
  return shell_state(shell).stats;
}

Tag Network::firing_counter(ShellId shell) const {
  return shell_state(shell).firing_counter;
}

bool Network::halted(ShellId shell) const {
  return shell_state(shell).halted;
}

std::size_t Network::fifo_size(ShellId shell, std::size_t port) const {
  const ShellState& state = shell_state(shell);
  WP_REQUIRE(port < state.in_end - state.in_begin,
             "input port index out of range");
  return inputs_[state.in_begin + port].fifo.size();
}

const Process& Network::process(ShellId shell) const {
  return *shell_state(shell).process;
}

const std::string& Network::shell_name(ShellId shell) const {
  shell_state(shell);
  return shell_names_[shell];
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
