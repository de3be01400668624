#include "util/strings.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/assert.hpp"

namespace wp {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::uint64_t prefix_key(std::string_view s) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < 8; ++i)
    key = key << 8 |
          (i < s.size() ? static_cast<unsigned char>(s[i]) : std::uint64_t{0});
  return key;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  WP_CHECK(n >= 0, "vsnprintf failed");
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

long long parse_int(std::string_view s) {
  const std::string buf{trim(s)};
  WP_REQUIRE(!buf.empty(), "parse_int on empty string");
  char* end = nullptr;
  const long long v = std::strtoll(buf.c_str(), &end, 0);
  WP_REQUIRE(end == buf.c_str() + buf.size(),
             "parse_int: trailing garbage in '" + buf + "'");
  return v;
}

double parse_double(std::string_view s) {
  const std::string buf{trim(s)};
  WP_REQUIRE(!buf.empty(), "parse_double on empty string");
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  WP_REQUIRE(end == buf.c_str() + buf.size(),
             "parse_double: trailing garbage in '" + buf + "'");
  return v;
}

}  // namespace wp
