// System-level description and the three ways to execute it:
//   * GoldenSim      — the original fully synchronous system (no wrappers);
//   * build_lid(...) — the wire-pipelined system: every process enclosed in
//                      a shell (WP1 or WP2) and every channel segmented by
//                      its configured number of relay stations.
//
// A SystemSpec is instantiated afresh for every run (ProcessFactory), so the
// golden, WP1 and WP2 executions never share mutable state.
//
// Channels belong to named *connections* (default "FROM-TO"): the physical
// link of the paper's Table 1. Setting the relay-station count of a
// connection applies to every channel in it — which is how the bidirectional
// CU-IC bundle of the case study gets relay stations on both the address and
// the instruction wire from a single table row.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/network.hpp"
#include "core/process.hpp"
#include "core/shell.hpp"

namespace wp {

/// Execution trace: for each "process.port" stream, the sequence of valid
/// values in tag order (τ symbols carry no information and are not stored —
/// this is exactly the τ-filtering of the paper's equivalence definition).
using Trace = std::map<std::string, std::vector<Word>>;

/// Result of comparing two τ-filtered traces up to the shared prefix.
struct EquivalenceResult {
  bool equivalent = true;
  std::uint64_t events_checked = 0;
  std::string detail;  // first mismatch, if any
};

/// Checks N-equivalence (paper §1): for every stream present in both traces,
/// the first min(|a|,|b|) values must agree.
EquivalenceResult check_equivalence(const Trace& golden, const Trace& wp);

class SystemSpec {
 public:
  struct ChannelDecl {
    std::string from, from_port, to, to_port;
    std::string connection;  // Table-1-style link name, e.g. "CU-RF"
    int relay_stations = 0;
  };

  /// Registers a process; the factory must yield a fresh instance each call.
  void add_process(std::string name, ProcessFactory factory);

  /// Declares a channel from.from_port → to.to_port. `connection` groups
  /// channels into one physical link (defaults to "FROM-TO").
  void add_channel(const std::string& from, const std::string& from_port,
                   const std::string& to, const std::string& to_port,
                   std::string connection = {});

  /// Sets the relay-station count of every channel of a connection.
  void set_connection_rs(const std::string& connection, int count);

  /// Sets every connection's relay-station count.
  void set_all_rs(int count);

  /// Per-connection counts, e.g. {{"CU-IC", 1}, ...}; missing names → 0.
  void set_rs_map(const std::map<std::string, int>& counts);

  const std::vector<ChannelDecl>& channels() const { return channels_; }
  const std::vector<std::string>& process_names() const { return names_; }

  std::unique_ptr<Process> instantiate(const std::string& name) const;

 private:
  friend class GoldenSim;
  friend struct LidSystem;

  std::vector<std::string> names_;
  std::map<std::string, ProcessFactory> factories_;
  std::vector<ChannelDecl> channels_;
};

/// The wire-pipelined instantiation: a Network plus name → shell id map.
/// It is movable: the shells live in the network, which lives on the heap.
struct LidSystem {
  std::unique_ptr<Network> network;
  std::map<std::string, ShellId> shells;
  Trace trace;  // populated while running if tracing was requested

  /// Runs Network::run until one shell's process halts (or max_cycles
  /// elapse), then runs `grace` further cycles so in-flight tokens (e.g.
  /// trailing stores that lag the halting block by the relay-station
  /// latency) drain. Returns the cycle at which the halt was observed — the
  /// Table-1 "Cycles" metric. A deadlock throws ContractViolation.
  std::uint64_t run_until_halt(std::uint64_t max_cycles,
                               std::uint64_t grace = 256);
};

/// Latency-noise injection applied at build time: when stall_probability is
/// positive, one noise station (a RelayStation with that stall probability)
/// is spliced into every channel, adding one relay-station latency each and
/// emulating congestion. The stations are seeded in channel order from one
/// Rng(seed). The LID protocol must keep the system equivalent under any
/// such noise.
struct NoiseOptions {
  double stall_probability = 0.0;
  std::uint64_t seed = 1;
};

/// Builds the LID network: shells per process (WP1 if !options.use_oracle,
/// WP2 otherwise), relay-station chains per channel, initial tokens seeded
/// from the producers' output reset values. If `record_trace`, every firing
/// appends its outputs to lid.trace.
LidSystem build_lid(const SystemSpec& spec, const ShellOptions& options,
                    bool record_trace = false,
                    const NoiseOptions& noise = {});

/// Reference simulator of the original synchronous system: every process
/// fires every cycle with all inputs (ideal zero-delay wiring discipline,
/// one register per channel).
class GoldenSim {
 public:
  explicit GoldenSim(const SystemSpec& spec, bool record_trace = false);

  /// Advances one clock cycle.
  void step();

  /// Runs until any process halts or max_cycles elapse; returns cycles run.
  std::uint64_t run_until_halt(std::uint64_t max_cycles);

  bool halted() const;
  const Trace& trace() const { return trace_; }

  const Process& process(const std::string& name) const;

  /// Called immediately before every fire() with the gathered input words;
  /// instrumentation (e.g. the communication profiler) hangs off this.
  using PreFireObserver = std::function<void(
      const std::string& name, const Process& process, const Word* inputs)>;
  void set_pre_fire_observer(PreFireObserver observer);

 private:
  struct Proc {
    std::string name;
    std::unique_ptr<Process> process;
    std::vector<Word> regs;       // output registers (current cycle values)
    std::vector<Word> next_regs;  // being written this cycle
    // For each input port: (producer index, producer output port) or nullopt
    // for unconnected inputs (which then read their own reset value).
    std::vector<std::optional<std::pair<std::size_t, std::size_t>>> sources;
    std::vector<Word> in_buf;
  };

  std::vector<Proc> procs_;
  bool record_trace_ = false;
  Trace trace_;
  PreFireObserver pre_fire_;
};

}  // namespace wp
