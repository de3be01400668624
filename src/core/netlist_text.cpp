#include "core/netlist_text.hpp"

#include <algorithm>

#include "core/procs.hpp"
#include "util/assert.hpp"
#include "util/strings.hpp"

namespace wp {

// ---------------------------------------------------------------------------
// ProcessRegistry
// ---------------------------------------------------------------------------

void ProcessRegistry::add(const std::string& type, ProcessBuilder builder) {
  WP_REQUIRE(static_cast<bool>(builder), "null process builder");
  WP_REQUIRE(builders_.find(type) == builders_.end(),
             "process type registered twice: " + type);
  builders_.emplace(type, std::move(builder));
}

ProcessFactory ProcessRegistry::build(const std::string& type,
                                      const ProcessParams& params) const {
  auto it = builders_.find(type);
  WP_REQUIRE(it != builders_.end(),
             "unknown process type '" + type + "' (known: " +
                 join(types(), ", ") + ")");
  return it->second(params);
}

std::vector<std::string> ProcessRegistry::types() const {
  std::vector<std::string> names;
  names.reserve(builders_.size());
  for (const auto& [name, builder] : builders_) {
    (void)builder;
    names.push_back(name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// Parameter helpers
// ---------------------------------------------------------------------------

long long param_int(const ProcessParams& params, const std::string& key,
                    long long fallback) {
  auto it = params.find(key);
  return it == params.end() ? fallback : parse_int(it->second);
}

long long param_int_required(const ProcessParams& params,
                             const std::string& key) {
  auto it = params.find(key);
  WP_REQUIRE(it != params.end(), "missing required parameter '" + key + "'");
  return parse_int(it->second);
}

// ---------------------------------------------------------------------------
// default_registry
// ---------------------------------------------------------------------------

ProcessRegistry default_registry() {
  ProcessRegistry registry;
  registry.add("counter", [](const ProcessParams& params) -> ProcessFactory {
    const auto start = static_cast<Word>(param_int(params, "start", 0));
    const auto stride = static_cast<Word>(param_int(params, "stride", 1));
    const auto limit =
        static_cast<std::uint64_t>(param_int(params, "limit", 0));
    return [start, stride, limit]() {
      return std::make_unique<CounterSource>("counter", start, stride,
                                             limit);
    };
  });
  registry.add("identity", [](const ProcessParams& params) -> ProcessFactory {
    const auto reset = static_cast<Word>(param_int(params, "reset", 0));
    return [reset]() {
      return std::make_unique<IdentityProcess>("identity", reset);
    };
  });
  registry.add("adder", [](const ProcessParams&) -> ProcessFactory {
    return []() { return std::make_unique<AdderProcess>("adder"); };
  });
  registry.add("accumulator", [](const ProcessParams&) -> ProcessFactory {
    return []() { return std::make_unique<AccumulatorProcess>("acc"); };
  });
  registry.add("dutycycle", [](const ProcessParams& params) -> ProcessFactory {
    const auto period =
        static_cast<std::uint64_t>(param_int_required(params, "period"));
    return [period]() {
      return std::make_unique<DutyCycleProcess>("duty", period);
    };
  });
  registry.add("sink", [](const ProcessParams& params) -> ProcessFactory {
    const auto limit =
        static_cast<std::uint64_t>(param_int(params, "limit", 0));
    return [limit]() { return std::make_unique<SinkProcess>("sink", limit); };
  });
  registry.add("randommoore", [](const ProcessParams& params) -> ProcessFactory {
    const auto inputs =
        static_cast<std::size_t>(param_int(params, "inputs", 2));
    const auto outputs =
        static_cast<std::size_t>(param_int(params, "outputs", 2));
    const auto states =
        static_cast<std::size_t>(param_int(params, "states", 4));
    const auto seed =
        static_cast<std::uint64_t>(param_int(params, "seed", 1));
    return [inputs, outputs, states, seed]() {
      Rng rng(seed);
      return std::make_unique<RandomMooreProcess>("moore", inputs, outputs,
                                                  states, rng);
    };
  });
  return registry;
}

// ---------------------------------------------------------------------------
// parse_system
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  WP_REQUIRE(false,
             "netlist error at line " + std::to_string(line) + ": " + msg);
  __builtin_unreachable();
}

/// Splits "proc.port" (exactly one dot).
std::pair<std::string, std::string> split_endpoint(const std::string& text,
                                                   int line) {
  const auto dot = text.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == text.size() ||
      text.find('.', dot + 1) != std::string::npos)
    fail(line, "expected <process>.<port>, got '" + text + "'");
  return {text.substr(0, dot), text.substr(dot + 1)};
}

}  // namespace

ParsedSystem parse_system(const std::string& text,
                          const ProcessRegistry& registry) {
  ParsedSystem parsed;
  int line_no = 0;
  int processes = 0;
  for (const auto& raw : split(text, '\n')) {
    ++line_no;
    std::string line = raw;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto tokens = split_ws(line);
    if (tokens.empty()) continue;

    if (tokens[0] == "system") {
      if (tokens.size() != 2) fail(line_no, "system expects a name");
      parsed.name = tokens[1];
    } else if (tokens[0] == "process") {
      if (tokens.size() < 3)
        fail(line_no, "process expects <name> <type> [key=value ...]");
      const std::string& name = tokens[1];
      const std::string& type = tokens[2];
      ProcessParams params;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const auto eq = tokens[i].find('=');
        if (eq == std::string::npos || eq == 0)
          fail(line_no, "expected key=value, got '" + tokens[i] + "'");
        params[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
      }
      try {
        parsed.spec.add_process(name, registry.build(type, params));
      } catch (const ContractViolation& e) {
        fail(line_no, e.what());
      }
      ++processes;
    } else if (tokens[0] == "channel") {
      // channel a.out -> b.in [connection=label] [rs=n]
      if (tokens.size() < 4 || tokens[2] != "->")
        fail(line_no,
             "channel expects <from>.<port> -> <to>.<port> [options]");
      const auto [from, from_port] = split_endpoint(tokens[1], line_no);
      const auto [to, to_port] = split_endpoint(tokens[3], line_no);
      std::string connection;
      int rs = 0;
      for (std::size_t i = 4; i < tokens.size(); ++i) {
        if (starts_with(tokens[i], "connection=")) {
          connection = tokens[i].substr(11);
        } else if (starts_with(tokens[i], "rs=")) {
          rs = static_cast<int>(parse_int(tokens[i].substr(3)));
          if (rs < 0) fail(line_no, "rs must be >= 0");
        } else {
          fail(line_no, "unknown channel option '" + tokens[i] + "'");
        }
      }
      try {
        parsed.spec.add_channel(from, from_port, to, to_port, connection);
        if (rs > 0) {
          const auto& decl = parsed.spec.channels().back();
          parsed.spec.set_connection_rs(decl.connection, rs);
        }
      } catch (const ContractViolation& e) {
        fail(line_no, e.what());
      }
    } else if (tokens[0] == "rs") {
      if (tokens.size() != 3) fail(line_no, "rs expects <connection> <count>");
      try {
        parsed.spec.set_connection_rs(
            tokens[1], static_cast<int>(parse_int(tokens[2])));
      } catch (const ContractViolation& e) {
        fail(line_no, e.what());
      }
    } else {
      fail(line_no, "unknown directive '" + tokens[0] + "'");
    }
  }
  WP_REQUIRE(processes > 0, "netlist defines no processes");
  return parsed;
}

}  // namespace wp
