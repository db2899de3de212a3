#include "sql/result_set.h"

#include <algorithm>
#include <charconv>

#include "common/logging.h"

namespace tsviz::sql {

void ResultSet::AddRow(std::vector<Cell> cells) {
  TSVIZ_CHECK(cells.size() == columns_.size());
  rows_.push_back(std::move(cells));
}

namespace {

// Appends one cell's text. Integers go through std::to_chars, doubles
// through std::to_chars(general, 10), which the standard defines as
// printf("%.10g") — so the text is the same, without a string per cell.
void AppendCell(const ResultSet::Cell& cell, std::string* out) {
  if (const auto* s = std::get_if<std::string>(&cell)) {
    out->append(*s);
    return;
  }
  if (std::holds_alternative<std::monostate>(cell)) {
    out->append("null");
    return;
  }
  char buf[32];
  std::to_chars_result result;
  if (const auto* i = std::get_if<int64_t>(&cell)) {
    result = std::to_chars(buf, buf + sizeof(buf), *i);
  } else {
    result = std::to_chars(buf, buf + sizeof(buf), std::get<double>(cell),
                           std::chars_format::general, 10);
  }
  out->append(buf, result.ptr);
}

}  // namespace

std::string ResultSet::CellToString(const Cell& cell) {
  std::string out;
  AppendCell(cell, &out);
  return out;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::vector<size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> printable;
  printable.reserve(std::min(rows_.size(), max_rows));
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (size_t r = 0; r < rows_.size() && r < max_rows; ++r) {
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      cells.push_back(CellToString(rows_[r][c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    printable.push_back(std::move(cells));
  }

  std::string out;
  auto append_row = [&](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      out += cells[c];
      out.append(widths[c] - cells[c].size() + 2, ' ');
    }
    out += '\n';
  };
  append_row(columns_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.append(widths[c], '-');
    out.append(2, ' ');
  }
  out += '\n';
  for (const auto& cells : printable) append_row(cells);
  if (rows_.size() > max_rows) {
    out += "... (" + std::to_string(rows_.size() - max_rows) +
           " more rows)\n";
  }
  return out;
}

std::string ResultSet::ToCsv() const {
  std::string out;
  // Room for a typical cell (an M4 timestamp or a %.10g value) plus comma.
  out.reserve((rows_.size() + 1) * columns_.size() * 18);
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out += ',';
    out += columns_[c];
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      AppendCell(row[c], &out);
    }
    out += '\n';
  }
  return out;
}

}  // namespace tsviz::sql
