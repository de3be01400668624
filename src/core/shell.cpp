#include "core/shell.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wp {

Shell::Shell(std::string name, std::unique_ptr<Process> process,
             ShellOptions options)
    : name_(std::move(name)),
      process_(std::move(process)),
      options_(options) {
  WP_REQUIRE(process_ != nullptr, "shell requires a process");
  WP_REQUIRE(options_.fifo_capacity >= 1, "FIFO capacity must be >= 1");
  in_.resize(process_->inputs().size());
  for (auto& input : in_) input.fifo.set_capacity(options_.fifo_capacity);
  initial_seed_.resize(in_.size(), kPoisonWord);
  out_.resize(process_->outputs().size());
  avail_.resize(in_.size());
  peek_values_.resize(in_.size());
  fire_in_.resize(in_.size());
  fire_out_.resize(out_.size());
}

void Shell::connect_input(std::size_t port, Wire* wire, Word initial_value) {
  WP_REQUIRE(port < in_.size(), "input port index out of range");
  WP_REQUIRE(wire != nullptr, "null wire");
  WP_REQUIRE(in_[port].wire == nullptr,
             "input port connected twice: " + process_->inputs()[port].name);
  in_[port].wire = wire;
  initial_seed_[port] = initial_value;
  // The channel's single initial token: the golden register's reset value.
  in_[port].fifo.push_back({0, initial_value});
  in_[port].received = 1;
}

void Shell::add_output_wire(std::size_t port, Wire* wire) {
  WP_REQUIRE(port < out_.size(), "output port index out of range");
  WP_REQUIRE(wire != nullptr, "null wire");
  out_[port].wires.push_back(wire);
  out_[port].delivered.push_back(true);  // nothing pending yet
}

void Shell::set_fire_observer(FireObserver observer) {
  observer_ = std::move(observer);
}

// Pinned to a 64-byte boundary: see Network::step in network.cpp.
[[gnu::aligned(64)]]
void Shell::eval() {
  for (auto& input : in_) {
    WP_CHECK(input.wire != nullptr, "unconnected input port on " + name_);
    input.stop_driven = input.fifo.size() >= options_.fifo_capacity;
    input.wire->drive_stop(input.stop_driven);
  }
  for (auto& output : out_) {
    for (std::size_t k = 0; k < output.wires.size(); ++k) {
      const bool must_drive = output.pending.valid && !output.delivered[k];
      output.wires[k]->drive(must_drive ? output.pending : Token::tau());
    }
  }
}

bool Shell::all_outputs_delivered() const {
  for (const auto& output : out_)
    if (output.pending.valid) return false;
  return true;
}

[[gnu::aligned(64)]]
bool Shell::commit(Cycle cycle) {
  // 1. Delivery bookkeeping: a pending token is transferred on each branch
  //    whose stop line is low this cycle.
  for (auto& output : out_) {
    if (!output.pending.valid) continue;
    bool all = true;
    for (std::size_t k = 0; k < output.wires.size(); ++k) {
      if (!output.delivered[k] && !output.wires[k]->stop())
        output.delivered[k] = true;
      all = all && output.delivered[k];
    }
    if (all) output.pending = Token::tau();
  }

  // 2. Accept arriving tokens. A token is transferred to us iff we drove the
  //    stop line low; tags are assigned by arrival order.
  for (auto& input : in_) {
    const Token& tok = input.wire->token();
    if (!tok.valid || input.stop_driven) continue;
    const Tag tag = input.received++;
    if (tag >= firing_counter_) {
      WP_CHECK(input.fifo.size() < options_.fifo_capacity,
               "input FIFO overflow on " + name_);
      input.fifo.push_back({tag, tok.value});
    } else {
      // The process already advanced past this tag without reading the
      // channel (WP2 blindness): discard on arrival.
      ++stats_.discarded_tokens;
    }
  }

  // 3. Purge fronts that aged below the firing counter (they were skipped by
  //    the oracle in an earlier firing and arrived before it completed).
  for (auto& input : in_) {
    while (!input.fifo.empty() && input.fifo.front().tag < firing_counter_) {
      input.fifo.pop_front();
      ++stats_.discarded_tokens;
    }
  }

  return try_fire(cycle);
}

[[gnu::aligned(64)]]
bool Shell::try_fire(Cycle cycle) {
  if (process_->halted()) return false;

  if (!all_outputs_delivered()) {
    ++stats_.stalls_output;
    return false;
  }

  // Availability of current-tag tokens.
  for (std::size_t i = 0; i < in_.size(); ++i) {
    const auto& fifo = in_[i].fifo;
    if (!fifo.empty()) {
      WP_CHECK(fifo.front().tag >= firing_counter_,
               "stale token survived purge on " + name_);
      avail_[i] = fifo.front().tag == firing_counter_;
      peek_values_[i] = avail_[i] ? fifo.front().value : kPoisonWord;
    } else {
      avail_[i] = false;
      peek_values_[i] = kPoisonWord;
    }
  }

  InputMask required = all_inputs_mask(in_.size());
  if (options_.use_oracle) {
    const PeekView peek(avail_.data(), peek_values_.data(), in_.size());
    required = process_->required(peek);
  }

  for (std::size_t i = 0; i < in_.size(); ++i) {
    if ((required >> i) & 1u) {
      if (!avail_[i]) {
        ++stats_.stalls_input;
        return false;  // required current-tag token missing: stall, emit τ
      }
    }
  }

  // Fire: build the input vector, consume current-tag tokens, transition.
  for (std::size_t i = 0; i < in_.size(); ++i) {
    const bool is_required = ((required >> i) & 1u) != 0;
    if (avail_[i]) {
      fire_in_[i] = (is_required || !options_.use_oracle ||
                     !options_.poison_unrequired)
                        ? in_[i].fifo.front().value
                        : kPoisonWord;
      in_[i].fifo.pop_front();  // tag consumed (or dead)
    } else {
      WP_CHECK(!is_required, "firing without a required input");
      fire_in_[i] = kPoisonWord;  // will arrive later; discarded on arrival
    }
  }

  process_->fire(fire_in_.data(), fire_out_.data());

  for (std::size_t o = 0; o < out_.size(); ++o) {
    out_[o].pending = Token::make(fire_out_[o]);
    std::fill(out_[o].delivered.begin(), out_[o].delivered.end(), false);
    if (out_[o].wires.empty()) out_[o].pending = Token::tau();  // dropped
  }

  const Tag tag = firing_counter_++;
  ++stats_.firings;
  if (observer_) observer_(cycle, tag, fire_out_.data());
  return true;
}

void Shell::reset() {
  process_->reset();
  firing_counter_ = 0;
  stats_ = ShellStats{};
  for (std::size_t i = 0; i < in_.size(); ++i) {
    auto& input = in_[i];
    input.fifo.clear();
    if (input.wire != nullptr) {
      // Re-seed the initial token; its value was recorded at connect time as
      // the first FIFO entry, so keep it across resets.
      input.fifo.push_back({0, initial_seed_[i]});
      input.received = 1;
    } else {
      input.received = 0;
    }
    input.stop_driven = false;
  }
  for (auto& output : out_) {
    output.pending = Token::tau();
    std::fill(output.delivered.begin(), output.delivered.end(), true);
  }
}

std::size_t Shell::fifo_size(std::size_t port) const {
  WP_REQUIRE(port < in_.size(), "input port index out of range");
  return in_[port].fifo.size();
}

}  // namespace wp
