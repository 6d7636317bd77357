// Declarative command-line flags for the example and bench executables.
//
// Each executable lists its flags once, as rows of a FlagTable: a name, a
// typed parser with its bounds, one line of help and a hidden bit. Two
// kinds of rule cover the combinations that make no sense ("A requires B",
// "A excludes {B, C, ...}"), and FlagTable::parse walks argv once:
// `--name=value` for value rows, bare `--name` for switches, anything not
// starting with "--" as a positional. A value row given twice keeps the
// last value, unless its parser accumulates (a repeatable row).
#pragma once

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstddef>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dnnlife::util {

/// Parse a decimal in 0..max into `out`. Returns false (leaving `out`
/// untouched) on empty input, any non-digit character (signs included), or
/// a value above `max`.
inline bool parse_unsigned_flag(const std::string& text, unsigned& out,
                                unsigned max = UINT_MAX) {
  unsigned value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value > max) return false;
  out = value;
  return true;
}

/// Parse a finite decimal (e.g. --deadline=2.5) into `out`. Returns false
/// (leaving `out` untouched) on empty input, trailing garbage, or a
/// non-finite or out-of-range result.
inline bool parse_double_flag(const std::string& text, double& out) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size() || !std::isfinite(value)) return false;
    out = value;
    return true;
  } catch (const std::exception&) {
    return false;  // empty, no digits, or out of range
  }
}

/// A command line FlagTable::parse rejected; what() names the flag or the
/// argument at fault.
struct FlagError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// One row of a FlagTable. Every member has a default, so rows are built
/// with designated initializers naming only what they set.
struct Flag {
  std::string name{};     ///< without the leading "--"
  std::string metavar{};  ///< value placeholder ("N", "PATH"); empty = switch
  std::string help{};     ///< one line in the usage block
  std::string expects{};  ///< what a valid value looks like, for rejections
  /// Parses one value and stores it (a repeatable row appends it); false
  /// rejects the value.
  std::function<bool(const std::string&)> apply{};
  bool hidden = false;  ///< left out of the usage block
  /// Optional: true when the parsed value selects the default behaviour
  /// (e.g. --shard=1/1), so rules treat the flag as absent.
  std::function<bool()> inert{};
};

/// `--name` sets `out`; `--name=value` is rejected.
inline Flag switch_flag(std::string name, bool& out, std::string help) {
  return {std::move(name), "", std::move(help), "",
          [&out](const std::string&) { out = true; return true; }};
}

/// A non-empty text value: a path or a registry name.
inline Flag text_flag(std::string name, std::string metavar, std::string& out,
                      std::string help) {
  return {std::move(name), std::move(metavar), std::move(help),
          "a non-empty value", [&out](const std::string& value) {
            if (!value.empty()) out = value;
            return !value.empty();
          }};
}

/// An unsigned decimal in 0..max.
inline Flag unsigned_flag(std::string name, unsigned& out, std::string help,
                          unsigned max = UINT_MAX) {
  return {std::move(name), "N", std::move(help),
          max == UINT_MAX ? "a number"
                          : "a number in 0.." + std::to_string(max),
          [&out, max](const std::string& value) {
            return parse_unsigned_flag(value, out, max);
          }};
}

/// A finite decimal; with `positive`, one above zero.
inline Flag real_flag(std::string name, std::string metavar, double& out,
                      std::string help, bool positive = false) {
  return {std::move(name), std::move(metavar), std::move(help),
          positive ? "a positive number" : "a finite number",
          [&out, positive](const std::string& value) {
            double parsed = 0.0;
            if (!parse_double_flag(value, parsed) || (positive && parsed <= 0))
              return false;
            out = parsed;
            return true;
          }};
}

// Rows that mean the same in several executables: one definition each, so
// a bound or a message cannot drift between them. --csv, --json and
// --aging-model are plain text_flag rows everywhere.

inline Flag executor_threads_flag(unsigned& out) {
  return unsigned_flag("executor-threads", out,
                       "size the shared executor (0 = hardware)", 4096);
}

inline Flag sim_cache_mb_flag(unsigned& out) {
  return unsigned_flag("sim-cache-mb", out,
                       "duty-state cache budget in MiB (0 = off)", 1u << 20);
}

inline Flag sim_store_flag(std::string& out) {
  return text_flag("sim-store", "DIR", out, "disk store of duty states");
}

/// One executable's flags, rules and positionals. Rows keep references to
/// the caller's variables, so the table must not outlive them.
class FlagTable {
 public:
  /// `program` and `operands` (e.g. "<dir | scenario.json...>") open the
  /// usage line; at most `max_positionals` positionals are accepted.
  explicit FlagTable(const std::string& program,
                     const std::string& operands = "",
                     std::size_t max_positionals = 0)
      : usage_line_("usage: " + program + (operands.empty() ? "" : " ") +
                    operands),
        max_positionals_(max_positionals) {}

  FlagTable& add(Flag row) {
    rows_.push_back(std::move(row));
    seen_.push_back(false);
    return *this;
  }

  /// Rule: `flag` is only valid together with `needed`.
  FlagTable& require(const std::string& flag, const std::string& needed) {
    rules_.push_back({flag, {needed}, true});
    return *this;
  }

  /// Rule: `flag` cannot be combined with any of `others`.
  FlagTable& exclude(const std::string& flag, std::vector<std::string> others) {
    rules_.push_back({flag, std::move(others), false});
    return *this;
  }

  /// Walk the arguments (argv without the program name), then check the
  /// rules. Throws FlagError naming the flag or argument at fault.
  void parse(const std::vector<std::string>& args) {
    for (const std::string& arg : args) {
      if (arg.rfind("--", 0) != 0) {
        if (positionals_.size() == max_positionals_)
          throw FlagError("unexpected argument '" + arg + "'\n" + usage());
        positionals_.push_back(arg);
        continue;
      }
      const std::size_t equals = arg.find('=');
      const std::string name = arg.substr(2, equals - 2);
      std::size_t i = 0;
      while (i < rows_.size() && rows_[i].name != name) ++i;
      if (i == rows_.size())
        throw FlagError("unknown flag " + arg + "\n" + usage());
      const Flag& row = rows_[i];
      if (row.metavar.empty() != (equals == std::string::npos))
        throw FlagError("--" + name + (row.metavar.empty()
                                           ? " is a switch and takes no value"
                                           : " needs a value: " + form(row)));
      const std::string value =
          row.metavar.empty() ? "" : arg.substr(equals + 1);
      if (!row.apply(value))
        throw FlagError("--" + name + " expects " + row.expects + ", got '" +
                        value + "'");
      seen_[i] = true;
    }
    for (const Rule& rule : rules_)
      for (const std::string& other : rule.others)
        if (given(rule.flag) && given(other) != rule.requires_other)
          throw FlagError("--" + rule.flag +
                          (rule.requires_other ? " requires --"
                                               : " cannot be used with --") +
                          other);
  }

  /// parse() over argv; prints a rejection to stderr and returns false.
  bool parse(int argc, char** argv) {
    try {
      parse(std::vector<std::string>(argv + std::min(argc, 1), argv + argc));
      return true;
    } catch (const FlagError& error) {
      std::cerr << error.what() << "\n";
      return false;
    }
  }

  /// Whether `name` appeared on the command line.
  bool seen(const std::string& name) const { return seen_[index_of(name)]; }

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// The usage line, then one help line per row that is not hidden.
  std::string usage() const {
    std::string line = usage_line_;
    std::string help;
    std::size_t width = 0;
    for (const Flag& row : rows_)
      if (!row.hidden) width = std::max(width, form(row).size());
    for (const Flag& row : rows_) {
      if (row.hidden) continue;
      line += " [" + form(row) + "]";
      help += "  " + form(row) +
              std::string(width + 2 - form(row).size(), ' ') + row.help + "\n";
    }
    return line + "\n" + help;
  }

 private:
  struct Rule {
    std::string flag;
    std::vector<std::string> others;
    bool requires_other;  // else: excludes every one of `others`
  };

  static std::string form(const Flag& row) {
    return "--" + row.name + (row.metavar.empty() ? "" : "=" + row.metavar);
  }

  /// The row named `name`; naming no row is a programming error.
  std::size_t index_of(const std::string& name) const {
    for (std::size_t i = 0; i < rows_.size(); ++i)
      if (rows_[i].name == name) return i;
    throw std::logic_error("no flag row named --" + name);
  }

  /// Seen, with a value that is not inert.
  bool given(const std::string& name) const {
    const std::size_t i = index_of(name);
    return seen_[i] && !(rows_[i].inert && rows_[i].inert());
  }

  std::string usage_line_;
  std::size_t max_positionals_;
  std::vector<Flag> rows_;
  std::vector<bool> seen_;
  std::vector<Rule> rules_;
  std::vector<std::string> positionals_;
};

}  // namespace dnnlife::util
