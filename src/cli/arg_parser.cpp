#include "cli/arg_parser.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "util/assert.hpp"

namespace wp::cli {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::flag(const std::string& name, const std::string& help) {
  WP_REQUIRE(name.rfind("--", 0) == 0, "flag names start with --");
  WP_REQUIRE(find_flag(name) == nullptr && find_option(name) == nullptr,
             "duplicate argument declaration: " + name);
  flags_.push_back({name, help, false});
}

void ArgParser::option(const std::string& name, const std::string& value_name,
                       const std::string& fallback, const std::string& help) {
  WP_REQUIRE(name.rfind("--", 0) == 0, "option names start with --");
  WP_REQUIRE(find_flag(name) == nullptr && find_option(name) == nullptr,
             "duplicate argument declaration: " + name);
  options_.push_back({name, value_name, fallback, help, fallback});
}

void ArgParser::positional(const std::string& value_name,
                           const std::string& fallback,
                           const std::string& help) {
  WP_REQUIRE(!has_positional_, "at most one positional argument");
  has_positional_ = true;
  positional_name_ = value_name;
  positional_help_ = help;
  positional_value_ = fallback;
}

ArgParser::Flag* ArgParser::find_flag(const std::string& name) {
  for (auto& f : flags_)
    if (f.name == name) return &f;
  return nullptr;
}

ArgParser::Option* ArgParser::find_option(const std::string& name) {
  for (auto& o : options_)
    if (o.name == name) return &o;
  return nullptr;
}

const ArgParser::Option& ArgParser::require_option(
    const std::string& name) const {
  for (const auto& o : options_)
    if (o.name == name) return o;
  WP_CHECK(false, "option was never declared: " + name);
  std::abort();  // unreachable: WP_CHECK throws
}

bool ArgParser::parse(int argc, char** argv) {
  bool saw_positional = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (Flag* f = find_flag(arg)) {
      f->present = true;
    } else if (Option* o = find_option(arg)) {
      if (i + 1 >= argc) {
        error_ = o->name + " needs a value (" + o->value_name + ")";
        return false;
      }
      o->value = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      error_ = "unknown flag '" + arg + "'";
      return false;
    } else if (has_positional_ && !saw_positional) {
      positional_value_ = arg;
      saw_positional = true;
    } else {
      error_ = "unexpected argument '" + arg + "'";
      return false;
    }
  }
  return true;
}

void ArgParser::parse_or_exit(int argc, char** argv) {
  // --help works even when not declared by the binary.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      std::cout << usage();
      std::exit(0);
    }
  }
  if (!parse(argc, argv)) {
    std::cerr << program_ << ": " << error_ << "\n\n" << usage();
    std::exit(2);
  }
}

bool ArgParser::has(const std::string& name) const {
  for (const auto& f : flags_)
    if (f.name == name) return f.present;
  WP_CHECK(false, "flag was never declared: " + name);
  return false;
}

std::string ArgParser::get(const std::string& name) const {
  return require_option(name).value;
}

int ArgParser::get_int(const std::string& name) const {
  const Option& o = require_option(name);
  try {
    std::size_t used = 0;
    const int v = std::stoi(o.value, &used);
    if (used != o.value.size()) throw std::invalid_argument(o.value);
    return v;
  } catch (...) {
    std::cerr << program_ << ": " << name << " needs an integer, got '"
              << o.value << "'\n";
    std::exit(2);
  }
}

std::vector<std::string> ArgParser::get_list(const std::string& name) const {
  std::vector<std::string> items;
  std::istringstream stream(require_option(name).value);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) items.push_back(item);
  return items;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nusage: " << program_;
  if (!options_.empty() || !flags_.empty()) os << " [options]";
  if (has_positional_) os << " [" << positional_name_ << "]";
  os << "\n\n";
  for (const auto& o : options_) {
    os << "  " << o.name << " <" << o.value_name << ">  " << o.help
       << " (default: " << (o.fallback.empty() ? "none" : o.fallback)
       << ")\n";
  }
  for (const auto& f : flags_) os << "  " << f.name << "  " << f.help << "\n";
  if (has_positional_)
    os << "  " << positional_name_ << "  " << positional_help_ << "\n";
  os << "  --help  print this text\n";
  return os.str();
}

}  // namespace wp::cli
