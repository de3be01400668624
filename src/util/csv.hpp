// Minimal CSV writer for benchmark output that downstream plotting scripts
// can consume. Handles quoting of separators, quotes and newlines.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace wp {

class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os, char sep = ',');

  /// Writes one row; cells containing the separator, quotes or newlines are
  /// quoted per RFC 4180.
  void row(const std::vector<std::string>& cells);

  /// Convenience overloads for mixed rows built by benches.
  void row(std::initializer_list<std::string> cells);

  /// Escapes a single cell (exposed for tests).
  static std::string escape(const std::string& cell, char sep);

 private:
  std::ostream& os_;
  char sep_;
};

}  // namespace wp
