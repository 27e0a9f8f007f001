// String helpers shared by parsers and report writers.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace sm {

// Splits on any run of whitespace; no empty tokens.
std::vector<std::string> SplitWhitespace(std::string_view s);

// Splits on a single delimiter; keeps empty tokens.
std::vector<std::string> SplitChar(std::string_view s, char delim);

std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// "1.23e+45" style compact scientific formatting for huge pattern counts.
std::string FormatCount(double value);

// Fixed-width percent like "16.2".
std::string FormatPercent(double fraction_times_100, int decimals = 1);

// `prefix` followed by the decimal index: IndexedName("a", 3) == "a3".
std::string IndexedName(std::string_view prefix, std::size_t index);

}  // namespace sm
