#include "core/shell.hpp"

#include "util/assert.hpp"

namespace wp {

Shell::Shell(std::string name, std::unique_ptr<Process> process,
             ShellOptions options)
    : name_(std::move(name)),
      process_(std::move(process)),
      options_(options) {
  WP_REQUIRE(process_ != nullptr, "shell requires a process");
  WP_REQUIRE(options_.fifo_capacity >= 1 &&
                 options_.fifo_capacity <= kMaxFifoCapacity,
             "FIFO capacity must be in [1, " +
                 std::to_string(kMaxFifoCapacity) + "]");
  in_.resize(process_->inputs().size());
  for (auto& input : in_) input.fifo.set_capacity(options_.fifo_capacity);
  fire_in_.resize(in_.size());
  fire_out_.resize(process_->outputs().size());
  halted_ = process_->halted();
}

void Shell::connect_input(std::size_t port, WireId wire, Word initial_value) {
  WP_REQUIRE(port < in_.size(), "input port index out of range");
  WP_REQUIRE(wire != kUnconnected, "invalid wire id");
  WP_REQUIRE(in_[port].wire == kUnconnected,
             "input port connected twice: " + process_->inputs()[port].name);
  in_[port].wire = wire;
  in_[port].initial = initial_value;
  // The channel's single initial token: the golden register's reset value.
  in_[port].fifo.push_back(initial_value);
  in_[port].received = 1;
}

void Shell::add_output_wire(std::size_t port, WireId wire) {
  WP_REQUIRE(port < fire_out_.size(), "output port index out of range");
  WP_REQUIRE(wire != kUnconnected, "invalid wire id");
  // Nothing is pending yet, so the new branch counts as delivered.
  branches_.push_back({wire, static_cast<std::uint32_t>(port), true});
}

void Shell::set_fire_observer(FireObserver observer) {
  observer_ = std::move(observer);
}

// Pinned to a 64-byte boundary: see Network::step in network.cpp.
[[gnu::aligned(64)]]
bool Shell::commit(const std::vector<Wire>& wires, Cycle cycle) {
  // 1. Delivery bookkeeping: a pending token is transferred on each branch
  //    whose stop line is low this cycle.
  if (undelivered_ != 0) {
    for (auto& branch : branches_) {
      if (!branch.delivered && !wires[branch.wire].stop) {
        branch.delivered = true;
        --undelivered_;
      }
    }
  }

  // 2. Accept arriving tokens. A token is transferred to us iff we drove the
  //    stop line low; tags are assigned by arrival order.
  for (auto& input : in_) {
    const Wire& wire = wires[input.wire];
    if (!wire.valid || input.stop_driven) continue;
    if (input.received++ < firing_counter_) {
      // The process already advanced past this tag without reading the
      // channel (WP2 blindness): discard on arrival.
      ++stats_.discarded_tokens;
    } else {
      WP_CHECK(!input.fifo.full(), "input FIFO overflow on " + name_);
      input.fifo.push_back(wire.value);
    }
  }

  // 3. Try to fire.
  if (halted_) return false;
  if (undelivered_ != 0) {
    ++stats_.stalls_output;
    return false;
  }

  // A non-empty FIFO's front is the current-tag token.
  InputMask available = 0;
  for (std::size_t i = 0; i < in_.size(); ++i) {
    const InputState& input = in_[i];
    if (input.fifo.empty()) {
      fire_in_[i] = kPoisonWord;  // will arrive later; discarded on arrival
      continue;
    }
    WP_CHECK(input.received - input.fifo.size() == firing_counter_,
             "stale token survived purge on " + name_);
    available |= InputMask{1} << i;
    fire_in_[i] = input.fifo.front();
  }

  const InputMask required =
      options_.use_oracle
          ? process_->required(
                PeekView(available, fire_in_.data(), in_.size()))
          : all_inputs_mask(in_.size());
  if ((required & ~available) != 0) {
    ++stats_.stalls_input;
    return false;  // required current-tag token missing: stall, emit τ
  }

  // Fire: consume the current-tag tokens (read or dead), transition.
  const bool poison = options_.use_oracle && options_.poison_unrequired;
  for (std::size_t i = 0; i < in_.size(); ++i) {
    const InputMask bit = InputMask{1} << i;
    if ((available & bit) != 0) {
      if (poison && (required & bit) == 0) fire_in_[i] = kPoisonWord;
      in_[i].fifo.pop_front();
    } else {
      WP_CHECK((required & bit) == 0, "firing without a required input");
    }
  }

  process_->fire(fire_in_.data(), fire_out_.data());
  for (auto& branch : branches_) branch.delivered = false;
  undelivered_ = branches_.size();
  halted_ = process_->halted();

  const Tag tag = firing_counter_++;
  ++stats_.firings;
  if (observer_) observer_(cycle, tag, fire_out_.data());
  return true;
}

void Shell::reset() {
  process_->reset();
  halted_ = process_->halted();
  firing_counter_ = 0;
  stats_ = ShellStats{};
  for (auto& input : in_) {
    input.fifo.clear();
    input.received = 0;
    input.stop_driven = false;
    if (input.wire != kUnconnected) {
      // Re-seed the channel's initial token.
      input.fifo.push_back(input.initial);
      input.received = 1;
    }
  }
  for (auto& branch : branches_) branch.delivered = true;
  undelivered_ = 0;
}

std::size_t Shell::fifo_size(std::size_t port) const {
  WP_REQUIRE(port < in_.size(), "input port index out of range");
  return in_[port].fifo.size();
}

}  // namespace wp
