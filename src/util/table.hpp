// Plain-text table printer used by the benchmark harnesses to render
// paper-style tables (Table 1 of the DATE'05 paper and the extension
// studies) with aligned columns.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace wp {

/// Accumulates rows of strings and prints them with the first column
/// left-aligned and the rest right-aligned, a header rule, and optional
/// section separators.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Adds a data row. Must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Adds a horizontal separator at the current position.
  void add_separator();

  /// Adds a full-width section title row (e.g. "Extraction Sort").
  void add_section(std::string title);

  std::string str() const;
  void print(std::ostream& os) const;

 private:
  struct Row {
    enum class Kind { kData, kSeparator, kSection } kind;
    std::vector<std::string> cells;  // data: one per column; section: [title]
  };

  std::vector<std::string> headers_;
  std::vector<Row> rows_;
};

/// Formats a double with a fixed number of decimals.
std::string fmt_fixed(double v, int decimals);

/// Formats a ratio as a signed percentage ("+13%", "0%", "-4%").
std::string fmt_percent(double ratio, int decimals = 0);

}  // namespace wp
