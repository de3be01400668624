// Small string utilities shared by the assembler, parsers and report code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wp {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of whitespace; no empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// ASCII lower-casing.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// The first eight bytes of `s`, zero-padded, as a big-endian integer.
/// prefix_key(a) < prefix_key(b) implies a < b lexicographically, so only
/// strings with equal keys need a full compare.
std::uint64_t prefix_key(std::string_view s);

/// Sorts `items` by `label(item)` (a string) lexicographically, ties by
/// item, so the order is total. Short labels compare as one integer
/// (prefix_key) instead of a string compare.
template <typename T, typename Label>
void sort_by_label(std::vector<T>& items, const Label& label) {
  std::vector<std::pair<std::uint64_t, T>> keyed;
  keyed.reserve(items.size());
  for (const T& item : items) keyed.emplace_back(prefix_key(label(item)), item);
  std::sort(keyed.begin(), keyed.end(), [&label](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    const int order = std::string_view(label(a.second))
                          .compare(std::string_view(label(b.second)));
    return order != 0 ? order < 0 : a.second < b.second;
  });
  for (std::size_t i = 0; i < items.size(); ++i) items[i] = keyed[i].second;
}

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parses a signed integer; throws wp::ContractViolation on garbage.
long long parse_int(std::string_view s);

/// Parses a double; throws wp::ContractViolation on garbage.
double parse_double(std::string_view s);

}  // namespace wp
