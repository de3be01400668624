#include "core/shell.hpp"

#include "core/network.hpp"
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
  inputs_.resize(process_->inputs().size());
}

void Shell::connect_input(std::size_t port, WireId wire, Word initial_value) {
  WP_REQUIRE(port < inputs_.size(), "input port index out of range");
  WP_REQUIRE(wire != kUnconnected, "invalid wire id");
  WP_REQUIRE(inputs_[port].wire == kUnconnected,
             "input port connected twice: " + process_->inputs()[port].name);
  inputs_[port] = {wire, initial_value};
  if (network_ != nullptr) network_->connect_input(index_, port);
}

void Shell::add_output_wire(std::size_t port, WireId wire) {
  WP_REQUIRE(port < process_->outputs().size(),
             "output port index out of range");
  WP_REQUIRE(wire != kUnconnected, "invalid wire id");
  branches_.push_back({wire, static_cast<std::uint32_t>(port)});
  if (network_ != nullptr) network_->add_branch(index_, branches_.back());
}

void Shell::set_fire_observer(FireObserver observer) {
  observer_ = std::move(observer);
  if (network_ != nullptr) network_->observe(index_);
}

void Shell::require_network() const {
  WP_REQUIRE(network_ != nullptr, "shell " + name_ + " is not in a network");
}

const ShellStats& Shell::stats() const {
  require_network();
  return network_->shells_[index_].stats;
}

Tag Shell::firing_counter() const {
  require_network();
  return network_->shells_[index_].firing_counter;
}

bool Shell::halted() const {
  require_network();
  return network_->shells_[index_].halted;
}

std::size_t Shell::fifo_size(std::size_t port) const {
  WP_REQUIRE(port < inputs_.size(), "input port index out of range");
  require_network();
  return network_->inputs_[network_->shells_[index_].in_begin + port]
      .fifo.size();
}

}  // namespace wp
