// One flag vocabulary for every binary with a command line.
//
// The benches each grew their own copy of the --samples/--families/--seed
// parsing loop (bench_common.hpp's arg_value/arg_int helpers plus a
// hand-rolled unknown-flag scan per main). ArgParser collapses that into a
// declarative parser shared by the benches and the service binaries
// (wirepipe_evald / wirepipe_shard): declare flags and valued options up
// front, parse once, and get unknown-flag rejection, --help text, typed
// accessors and positional handling for free — the two passes that used
// to be able to drift (value extraction vs unknown-flag detection) are now
// one pass over one table.
#pragma once

#include <string>
#include <vector>

namespace wp::cli {

class ArgParser {
 public:
  /// `program` and `description` head the --help text.
  ArgParser(std::string program, std::string description);

  /// Boolean flag: `--name` (no value).
  void flag(const std::string& name, const std::string& help);

  /// Valued option: `--name <value_name>`; `fallback` when absent.
  void option(const std::string& name, const std::string& value_name,
              const std::string& fallback, const std::string& help);

  /// At most one bare (non-flag) argument; `fallback` when absent.
  void positional(const std::string& value_name, const std::string& fallback,
                  const std::string& help);

  /// Parses argv. Returns false — with error() set — on an unknown flag,
  /// a valued option missing its value, or an unexpected extra positional.
  bool parse(int argc, char** argv);

  /// parse() + the standard exit policy: --help prints usage and exits 0,
  /// a parse error prints the error and usage to stderr and exits 2.
  void parse_or_exit(int argc, char** argv);

  bool has(const std::string& name) const;          ///< flag present?
  std::string get(const std::string& name) const;   ///< option value
  int get_int(const std::string& name) const;       ///< exits 2 on non-int
  /// Comma-separated option value split into items; empty when absent.
  std::vector<std::string> get_list(const std::string& name) const;
  const std::string& positional_value() const { return positional_value_; }

  const std::string& error() const { return error_; }
  std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    bool present = false;
  };
  struct Option {
    std::string name;
    std::string value_name;
    std::string fallback;
    std::string help;
    std::string value;
  };

  Flag* find_flag(const std::string& name);
  Option* find_option(const std::string& name);
  const Option& require_option(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
  std::vector<Option> options_;
  bool has_positional_ = false;
  std::string positional_name_;
  std::string positional_help_;
  std::string positional_value_;
  std::string error_;
};

}  // namespace wp::cli
