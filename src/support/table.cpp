#include "support/table.hpp"

#include <algorithm>

#include "support/str.hpp"

namespace autophase {

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out += "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string cell = c < row.size() ? row[c] : std::string();
      out += ' ';
      out += pad_right(cell, widths[c]);
      out += " |";
    }
    out += "\n";
  };
  std::string rule = "+";
  for (const auto w : widths) rule += std::string(w + 2, '-') + "+";
  rule += "\n";
  out += rule;
  emit_row(header_);
  out += rule;
  for (const auto& row : rows_) emit_row(row);
  out += rule;
  return out;
}

std::string TextTable::render_csv() const {
  std::string out = join(header_, ",") + "\n";
  for (const auto& row : rows_) out += join(row, ",") + "\n";
  return out;
}

std::string render_heatmap(const std::vector<std::vector<double>>& matrix,
                           const std::string& row_axis, const std::string& col_axis) {
  static const char kRamp[] = " .:-=+*#%@";
  constexpr int kRampMax = 9;
  double max_value = 0.0;
  for (const auto& row : matrix) {
    for (const double v : row) max_value = std::max(max_value, v);
  }
  std::string out = strf("heatmap: rows=%s cols=%s (max=%.4f, ramp=\"%s\")\n", row_axis.c_str(),
                         col_axis.c_str(), max_value, kRamp);
  if (matrix.empty()) return out;
  out += "     ";
  for (std::size_t c = 0; c < matrix[0].size(); ++c) out += (c % 10 == 0) ? '|' : ' ';
  out += "\n";
  for (std::size_t r = 0; r < matrix.size(); ++r) {
    out += pad_left(strf("%zu", r), 3) + " [";
    for (const double v : matrix[r]) {
      const int idx = max_value > 0.0
                          ? std::min(kRampMax, static_cast<int>(v / max_value * kRampMax + 0.5))
                          : 0;
      out += kRamp[idx];
    }
    out += "]\n";
  }
  return out;
}

}  // namespace autophase
