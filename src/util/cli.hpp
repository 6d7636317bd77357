// Tiny shared CLI flag parsing helpers for the example/bench executables.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace dnnlife::util {

/// Match `--<name>=<value>` flags: true (filling `value`) on a match.
inline bool flag_value(const std::string& arg, const std::string& name,
                       std::string& value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

/// Parse a non-negative decimal flag value into `out`. Returns false (and
/// leaves `out` untouched) on empty input, non-digit characters, or
/// overflow — callers print their own usage message instead of letting
/// std::stoul terminate the process.
inline bool parse_unsigned_flag(const std::string& text, unsigned& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  try {
    const unsigned long value = std::stoul(text);
    if (value > static_cast<unsigned long>(~0u)) return false;
    out = static_cast<unsigned>(value);
  } catch (const std::exception&) {
    return false;  // out_of_range on absurdly long digit strings
  }
  return true;
}

/// Parse a finite decimal flag value (e.g. --deadline=2.5) into `out`.
/// Returns false (leaving `out` untouched) on empty input, trailing
/// garbage, or a non-finite result.
inline bool parse_double_flag(const std::string& text, double& out) {
  if (text.empty()) return false;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size() || !std::isfinite(value)) return false;
    out = value;
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace dnnlife::util
