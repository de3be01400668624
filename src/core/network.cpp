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
  Shell& handle = *shell;
  const auto index = static_cast<std::uint32_t>(shells_.size());
  const std::size_t capacity = handle.options_.fifo_capacity;

  ShellState state;
  state.process = handle.process_.get();
  state.observer = nullptr;
  state.in_begin = static_cast<std::uint32_t>(inputs_.size());
  for (std::size_t port = 0; port < handle.inputs_.size(); ++port) {
    inputs_.push_back({TokenRing(ring_words_.size() + port * capacity,
                                 capacity),
                       0, Shell::kUnconnected, index,
                       InputMask{1} << port});
  }
  state.in_end = static_cast<std::uint32_t>(inputs_.size());
  state.all_inputs = all_inputs_mask(handle.inputs_.size());
  unconnected_ += handle.inputs_.size();
  state.br_begin = state.br_end = static_cast<std::uint32_t>(branches_.size());
  state.out_begin = static_cast<std::uint32_t>(out_words_.size());
  state.halted = state.process->halted();
  state.oracle = handle.options_.use_oracle && state.process->has_oracle();
  state.poison = state.oracle && handle.options_.poison_unrequired;
  shells_.push_back(state);
  if (state.halted) ++halted_;

  ring_words_.resize(ring_words_.size() + handle.inputs_.size() * capacity,
                     kPoisonWord);
  in_words_.resize(inputs_.size(), 0);
  out_words_.resize(out_words_.size() + state.process->outputs().size(), 0);

  handles_.push_back(std::move(shell));
  handle.network_ = this;
  handle.index_ = index;
  // The connections made before the shell joined the network.
  for (std::size_t port = 0; port < handle.inputs_.size(); ++port)
    if (handle.inputs_[port].wire != Shell::kUnconnected)
      connect_input(index, port);
  for (const Shell::Branch& branch : handle.branches_)
    add_branch(index, branch);
  observe(index);
  return &handle;
}

void Network::connect_input(std::uint32_t shell, std::size_t port) {
  const std::size_t input = shells_[shell].in_begin + port;
  inputs_[input].wire = handles_[shell]->inputs_[port].wire;
  --unconnected_;
  seed(input);
}

void Network::add_branch(std::uint32_t shell, const Shell::Branch& branch) {
  // A shell's branches stay contiguous: insert at the end of its range and
  // shift the ranges of the shells after it. Nothing is pending yet, so the
  // new branch counts as delivered.
  ShellState& state = shells_[shell];
  branches_.insert(branches_.begin() + state.br_end,
                   {branch.wire, state.out_begin + branch.port, shell, false});
  ++state.br_end;
  for (std::size_t k = shell + 1; k < shells_.size(); ++k) {
    ++shells_[k].br_begin;
    ++shells_[k].br_end;
  }
}

void Network::observe(std::uint32_t shell) {
  const Shell::FireObserver& observer = handles_[shell]->observer_;
  shells_[shell].observer = observer ? &observer : nullptr;
}

void Network::seed(std::size_t input) {
  InputState& state = inputs_[input];
  const std::size_t port = input - shells_[state.shell].in_begin;
  state.fifo.push_back(ring_words_.data(),
                       handles_[state.shell]->inputs_[port].initial);
  state.received = 1;
}

const std::string& Network::first_unconnected_shell() const {
  for (const InputState& input : inputs_)
    if (input.wire == Shell::kUnconnected) return handles_[input.shell]->name();
  WP_CHECK(false, "no unconnected input");
  return handles_.front()->name();  // unreachable
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

// One clock cycle: every per-cycle pass. It is inlined into both step()
// and run(), so the run loop makes no call per cycle. The relay station's
// eval and commit are inlined here.
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
                 "input FIFO overflow on " + handles_[input.shell]->name());
        input.fifo.push_back(ring, wire.value);
      }
    }
    if (!input.fifo.empty()) {
      WP_CHECK(input.received - input.fifo.size() == shell.firing_counter,
               "stale token survived purge on " +
                   handles_[input.shell]->name());
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
// holding the inlined cycle, are pinned to 64-byte boundaries: their speed
// depends on where their loops fall within a 64-byte line, and unpinned, a
// code-size change in files linked before them moved the stream-wp2
// benchmark by 5% (latency_p1_ms, gcc 12.2 Release on a 4-vCPU Xeon).
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

void Network::reset() {
  for (auto& wire : wires_) wire = Wire{};
  firings_ = 0;
  halted_ = 0;
  for (ShellState& shell : shells_) {
    shell.process->reset();
    shell.halted = shell.process->halted();
    if (shell.halted) ++halted_;
    shell.firing_counter = 0;
    shell.undelivered = 0;
    shell.available = 0;
    shell.stats = ShellStats{};
  }
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    InputState& input = inputs_[i];
    input.fifo.clear();
    input.received = 0;
    if (input.wire != Shell::kUnconnected) seed(i);  // initial token
  }
  for (BranchState& branch : branches_) branch.pending = false;
  for (auto& station : stations_) station.reset();
  for (auto& station : noise_stations_) station.reset();
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
