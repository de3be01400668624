#include "core/system.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/rng.hpp"
#include "util/assert.hpp"

namespace wp {

// ---------------------------------------------------------------------------
// Equivalence
// ---------------------------------------------------------------------------

EquivalenceResult check_equivalence(const Trace& golden, const Trace& wp) {
  EquivalenceResult result;
  for (const auto& [stream, golden_values] : golden) {
    auto it = wp.find(stream);
    if (it == wp.end()) continue;  // stream not observed in the WP run
    const auto& wp_values = it->second;
    const std::size_t n = std::min(golden_values.size(), wp_values.size());
    for (std::size_t k = 0; k < n; ++k) {
      if (golden_values[k] != wp_values[k]) {
        result.equivalent = false;
        std::ostringstream os;
        os << "stream " << stream << " diverges at tag " << k << ": golden="
           << golden_values[k] << " wp=" << wp_values[k];
        result.detail = os.str();
        return result;
      }
    }
    result.events_checked += n;
  }
  return result;
}

// ---------------------------------------------------------------------------
// SystemSpec
// ---------------------------------------------------------------------------

void SystemSpec::add_process(std::string name, ProcessFactory factory) {
  WP_REQUIRE(static_cast<bool>(factory), "null process factory");
  WP_REQUIRE(factories_.find(name) == factories_.end(),
             "duplicate process name: " + name);
  names_.push_back(name);
  factories_.emplace(std::move(name), std::move(factory));
}

void SystemSpec::add_channel(const std::string& from,
                             const std::string& from_port,
                             const std::string& to,
                             const std::string& to_port,
                             std::string connection) {
  WP_REQUIRE(factories_.count(from) == 1, "unknown process: " + from);
  WP_REQUIRE(factories_.count(to) == 1, "unknown process: " + to);
  if (connection.empty()) connection = from + "-" + to;
  channels_.push_back({from, from_port, to, to_port, std::move(connection), 0});
}

void SystemSpec::set_connection_rs(const std::string& connection, int count) {
  WP_REQUIRE(count >= 0, "relay station count must be non-negative");
  bool found = false;
  for (auto& ch : channels_) {
    if (ch.connection == connection) {
      ch.relay_stations = count;
      found = true;
    }
  }
  WP_REQUIRE(found, "unknown connection: " + connection);
}

void SystemSpec::set_all_rs(int count) {
  WP_REQUIRE(count >= 0, "relay station count must be non-negative");
  for (auto& ch : channels_) ch.relay_stations = count;
}

void SystemSpec::set_rs_map(const std::map<std::string, int>& counts) {
  for (auto& ch : channels_) {
    auto it = counts.find(ch.connection);
    ch.relay_stations = it == counts.end() ? 0 : it->second;
  }
  for (const auto& [name, count] : counts) {
    (void)count;
    WP_REQUIRE(std::any_of(channels_.begin(), channels_.end(),
                           [&](const ChannelDecl& ch) {
                             return ch.connection == name;
                           }),
               "unknown connection in RS map: " + name);
  }
}

std::vector<std::string> SystemSpec::connections() const {
  std::set<std::string> names;
  for (const auto& ch : channels_) names.insert(ch.connection);
  return {names.begin(), names.end()};
}

std::unique_ptr<Process> SystemSpec::instantiate(
    const std::string& name) const {
  auto it = factories_.find(name);
  WP_REQUIRE(it != factories_.end(), "unknown process: " + name);
  auto process = it->second();
  WP_ENSURE(process != nullptr, "factory returned null for " + name);
  return process;
}

// ---------------------------------------------------------------------------
// LID build
// ---------------------------------------------------------------------------

LidSystem build_lid(const SystemSpec& spec, const ShellOptions& options,
                    bool record_trace, const NoiseOptions& noise) {
  WP_REQUIRE(noise.stall_probability >= 0.0 &&
                 noise.stall_probability <= 1.0,
             "stall probability must be in [0, 1]");
  LidSystem lid;
  lid.network = std::make_unique<Network>();
  Rng noise_rng(noise.seed);

  for (const auto& name : spec.process_names()) {
    auto process = spec.instantiate(name);
    auto shell =
        std::make_unique<Shell>(name, std::move(process), options);
    lid.shells[name] = lid.network->add_shell(std::move(shell));
  }

  for (const auto& ch : spec.channels()) {
    Shell* from = lid.shells.at(ch.from);
    Shell* to = lid.shells.at(ch.to);
    const std::size_t out_port = from->process().output_index(ch.from_port);
    const std::size_t in_port = to->process().input_index(ch.to_port);
    const Word seed = from->process().outputs()[out_port].reset_value;

    // Wire chain: from → RS_1 → … → RS_n → to.
    const std::string base =
        ch.from + "." + ch.from_port + "->" + ch.to + "." + ch.to_port;
    WireId tail = lid.network->make_wire(base + "#0");
    from->add_output_wire(out_port, tail);
    for (int k = 0; k < ch.relay_stations; ++k) {
      const WireId next =
          lid.network->make_wire(base + "#" + std::to_string(k + 1));
      lid.network->add_relay_station(tail, next);
      tail = next;
    }
    if (noise.stall_probability > 0.0) {
      const WireId next = lid.network->make_wire(base + "#noise");
      lid.network->add_relay_station(tail, next, noise.stall_probability,
                                     noise_rng());
      tail = next;
    }
    to->connect_input(in_port, tail, seed);
  }

  if (record_trace) {
    for (auto& [name, shell] : lid.shells) {
      Shell* s = shell;
      Trace* trace = &lid.trace;
      const auto& outs = s->process().outputs();
      std::vector<std::string> keys;
      keys.reserve(outs.size());
      for (const auto& port : outs) keys.push_back(name + "." + port.name);
      s->set_fire_observer(
          [trace, keys](Cycle, Tag, const Word* values) {
            for (std::size_t o = 0; o < keys.size(); ++o)
              (*trace)[keys[o]].push_back(values[o]);
          });
    }
  }

  return lid;
}

std::uint64_t LidSystem::run_until_halt(std::uint64_t max_cycles,
                                        std::uint64_t grace) {
  const std::uint64_t halt_cycle = network->run(max_cycles, 1);
  for (std::uint64_t i = 0; i < grace; ++i) network->step();
  return halt_cycle;
}

// ---------------------------------------------------------------------------
// GoldenSim
// ---------------------------------------------------------------------------

GoldenSim::GoldenSim(const SystemSpec& spec, bool record_trace)
    : record_trace_(record_trace) {
  std::map<std::string, std::size_t> index;
  for (const auto& name : spec.process_names()) {
    Proc p;
    p.name = name;
    p.process = spec.instantiate(name);
    p.regs.reserve(p.process->outputs().size());
    for (const auto& port : p.process->outputs())
      p.regs.push_back(port.reset_value);
    p.next_regs = p.regs;
    p.sources.resize(p.process->inputs().size());
    p.in_buf.resize(p.process->inputs().size());
    index[name] = procs_.size();
    procs_.push_back(std::move(p));
  }
  for (const auto& ch : spec.channels()) {
    Proc& to = procs_[index.at(ch.to)];
    const Proc& from = procs_[index.at(ch.from)];
    const std::size_t in_port = to.process->input_index(ch.to_port);
    const std::size_t out_port = from.process->output_index(ch.from_port);
    WP_REQUIRE(!to.sources[in_port].has_value(),
               "input connected twice: " + ch.to + "." + ch.to_port);
    to.sources[in_port] = {index.at(ch.from), out_port};
  }
}

void GoldenSim::step() {
  for (auto& p : procs_) {
    for (std::size_t i = 0; i < p.sources.size(); ++i) {
      if (p.sources[i].has_value()) {
        const auto [src, port] = *p.sources[i];
        p.in_buf[i] = procs_[src].regs[port];
      } else {
        p.in_buf[i] = p.process->inputs()[i].reset_value;
      }
    }
    if (pre_fire_) pre_fire_(p.name, *p.process, p.in_buf.data());
    p.process->fire(p.in_buf.data(), p.next_regs.data());
    if (record_trace_) {
      for (std::size_t o = 0; o < p.next_regs.size(); ++o)
        trace_[p.name + "." + p.process->outputs()[o].name].push_back(
            p.next_regs[o]);
    }
  }
  for (auto& p : procs_) p.regs = p.next_regs;
  ++cycle_;
}

std::uint64_t GoldenSim::run_until_halt(std::uint64_t max_cycles) {
  std::uint64_t executed = 0;
  while (executed < max_cycles && !halted()) {
    step();
    ++executed;
  }
  return executed;
}

bool GoldenSim::halted() const {
  for (const auto& p : procs_)
    if (p.process->halted()) return true;
  return false;
}

void GoldenSim::set_pre_fire_observer(PreFireObserver observer) {
  pre_fire_ = std::move(observer);
}

const Process& GoldenSim::process(const std::string& name) const {
  for (const auto& p : procs_)
    if (p.name == name) return *p.process;
  WP_REQUIRE(false, "unknown process: " + name);
  return *procs_.front().process;  // unreachable
}

}  // namespace wp
