// Textual system description: define a latency-insensitive system (its
// processes, channels, connection groups and relay-station counts) in a
// small netlist language instead of C++, so experiments can be scripted.
//
//   # three-stage loop, long feedback wire
//   system demo
//   process src  counter   start=5 stride=3
//   process duty dutycycle period=4
//   process echo identity  reset=0
//   channel src.out  -> duty.a
//   channel duty.out -> echo.in
//   channel echo.out -> duty.b  connection=loopback rs=2
//
// Process types come from a ProcessRegistry; default_registry() exposes
// the library blocks (counter, identity, adder, accumulator, dutycycle,
// sink, randommoore). Applications register their own types the same way.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "core/process.hpp"
#include "core/system.hpp"

namespace wp {

/// key=value parameters of one `process` line (values still textual).
using ProcessParams = std::map<std::string, std::string>;

/// Builds a fresh-instance factory from parameters; throws on bad/missing
/// parameters (with the offending key in the message).
using ProcessBuilder =
    std::function<ProcessFactory(const ProcessParams& params)>;

class ProcessRegistry {
 public:
  /// Registers a type; overwriting an existing name is an error.
  void add(const std::string& type, ProcessBuilder builder);

  ProcessFactory build(const std::string& type,
                       const ProcessParams& params) const;

  /// Sorted type names (for error messages and --help output).
  std::vector<std::string> types() const;

 private:
  std::map<std::string, ProcessBuilder> builders_;
};

/// The library blocks from core/procs.hpp.
ProcessRegistry default_registry();

struct ParsedSystem {
  std::string name;
  SystemSpec spec;
};

/// Parses the netlist language; throws wp::ContractViolation with a
/// line-numbered message on any error (unknown type, bad parameter,
/// duplicate process, unknown port, malformed channel, …).
ParsedSystem parse_system(const std::string& text,
                          const ProcessRegistry& registry);

// --- parameter helpers for ProcessBuilder implementations ---------------
long long param_int(const ProcessParams& params, const std::string& key,
                    long long fallback);
/// Required variant: throws if the key is absent.
long long param_int_required(const ProcessParams& params,
                             const std::string& key);

}  // namespace wp
