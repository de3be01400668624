#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace wp {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  WP_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  WP_REQUIRE(cells.size() == headers_.size(),
             "row width does not match header width");
  rows_.push_back({Row::Kind::kData, std::move(cells)});
}

void TextTable::add_separator() {
  rows_.push_back({Row::Kind::kSeparator, {}});
}

void TextTable::add_section(std::string title) {
  rows_.push_back({Row::Kind::kSection, {std::move(title)}});
}

std::string TextTable::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    if (row.kind != Row::Kind::kData) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c)
      width[c] = std::max(width[c], row.cells[c].size());
  }

  std::size_t total = headers_.size() * 3 + 1;
  for (auto w : width) total += w;

  // Column c is left-aligned when c is 0, right-aligned otherwise.
  auto pad = [](const std::string& s, std::size_t w, std::size_t c) {
    std::string out;
    const std::size_t fill = w > s.size() ? w - s.size() : 0;
    if (c != 0) out.append(fill, ' ');
    out += s;
    if (c == 0) out.append(fill, ' ');
    return out;
  };

  std::ostringstream os;
  auto rule = [&] { os << std::string(total, '-') << '\n'; };

  rule();
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << ' ' << pad(headers_[c], width[c], c) << " |";
  os << '\n';
  rule();
  for (const auto& row : rows_) {
    switch (row.kind) {
      case Row::Kind::kData:
        os << "|";
        for (std::size_t c = 0; c < row.cells.size(); ++c)
          os << ' ' << pad(row.cells[c], width[c], c) << " |";
        os << '\n';
        break;
      case Row::Kind::kSeparator:
        rule();
        break;
      case Row::Kind::kSection: {
        os << "| " << pad(row.cells[0], total - 4, 0) << " |\n";
        break;
      }
    }
  }
  rule();
  return os.str();
}

void TextTable::print(std::ostream& os) const { os << str(); }

std::string fmt_fixed(double v, int decimals) {
  return format("%.*f", decimals, v);
}

std::string fmt_percent(double ratio, int decimals) {
  const double pct = ratio * 100.0;
  if (pct > 0.0)
    return "+" + format("%.*f", decimals, pct) + "%";
  return format("%.*f", decimals, pct) + "%";
}

}  // namespace wp
