#include "util/csv.hpp"

#include <ostream>

namespace wp {

CsvWriter::CsvWriter(std::ostream& os, char sep) : os_(os), sep_(sep) {}

std::string CsvWriter::escape(const std::string& cell, char sep) {
  const bool needs_quote =
      cell.find(sep) != std::string::npos ||
      cell.find('"') != std::string::npos ||
      cell.find('\n') != std::string::npos ||
      cell.find('\r') != std::string::npos;
  if (!needs_quote) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) os_ << sep_;
    os_ << escape(cells[i], sep_);
  }
  os_ << '\n';
}

void CsvWriter::row(std::initializer_list<std::string> cells) {
  row(std::vector<std::string>(cells));
}

}  // namespace wp
