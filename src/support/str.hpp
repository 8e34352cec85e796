// Small string utilities shared across modules (no std::format in GCC 12's
// libstdc++, so printf-style helpers live here).
#pragma once

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace autophase {

/// printf-style formatting into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::vector<std::string> split(std::string_view text, char sep);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

std::string_view trim(std::string_view text);

/// Left-pad/right-pad to a fixed width (for ASCII tables).
std::string pad_left(std::string_view text, std::size_t width);
std::string pad_right(std::string_view text, std::size_t width);

/// Render a double with fixed precision, e.g. fmt_double(0.2789, 2) == "0.28".
std::string fmt_double(double value, int precision);

}  // namespace autophase
