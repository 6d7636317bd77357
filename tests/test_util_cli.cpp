// util/cli.hpp, the one flag parser behind every example and bench
// executable: the typed value parsers at their edges (empty values,
// trailing garbage, signs, overflow, non-finite numbers, both ends of each
// bound), and FlagTable's argv walk (unknown flags, switches given a
// value, value flags given none, last-wins, repeatable rows, requires and
// excludes rules, positionals, hidden rows).
#include <gtest/gtest.h>

#include <climits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace dnnlife::util {
namespace {

// ---- typed value parsers ----------------------------------------------------

TEST(CliParsers, UnsignedAcceptsOnlyPlainDecimalsThatFit) {
  unsigned value = 7;
  for (const char* bad : {"", "4x", "85abc", "-5", "+5", " 5", "0x10",
                          "4294967296", "99999999999999999999999"}) {
    EXPECT_FALSE(parse_unsigned_flag(bad, value)) << bad;
    EXPECT_EQ(value, 7u) << "a rejection must leave the target untouched";
  }
  ASSERT_TRUE(parse_unsigned_flag("0", value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(parse_unsigned_flag("4294967295", value));
  EXPECT_EQ(value, UINT_MAX);
  ASSERT_TRUE(parse_unsigned_flag("007", value));
  EXPECT_EQ(value, 7u);
}

TEST(CliParsers, DoubleAcceptsOnlyWholeFiniteNumbers) {
  double value = 1.5;
  for (const char* bad : {"", "85abc", "4x", "inf", "-inf", "nan", "1e999",
                          "1.5.2", "abc"}) {
    EXPECT_FALSE(parse_double_flag(bad, value)) << bad;
    EXPECT_EQ(value, 1.5);
  }
  ASSERT_TRUE(parse_double_flag("-5", value));
  EXPECT_EQ(value, -5.0);
  ASSERT_TRUE(parse_double_flag("+5", value));
  EXPECT_EQ(value, 5.0);
  ASSERT_TRUE(parse_double_flag("2.5e-3", value));
  EXPECT_EQ(value, 2.5e-3);
}

/// Whether `row` accepts `value`, via its table.
bool accepts(Flag row, const std::string& value) {
  FlagTable table("prog");
  const std::string name = row.name;
  table.add(std::move(row));
  try {
    table.parse({"--" + name + "=" + value});
    return true;
  } catch (const FlagError&) {
    return false;
  }
}

TEST(CliParsers, UnsignedRowsEnforceTheirUpperBound) {
  unsigned value = 0;
  EXPECT_TRUE(accepts(unsigned_flag("n", value, "", 1024), "0"));
  EXPECT_TRUE(accepts(unsigned_flag("n", value, "", 1024), "1024"));
  EXPECT_EQ(value, 1024u);
  EXPECT_FALSE(accepts(unsigned_flag("n", value, "", 1024), "1025"));
  EXPECT_FALSE(accepts(unsigned_flag("n", value, "", 1024), ""));
  EXPECT_FALSE(accepts(unsigned_flag("n", value, "", 1024), "-5"));
  EXPECT_TRUE(accepts(unsigned_flag("n", value, ""), "4294967295"));
  EXPECT_FALSE(accepts(unsigned_flag("n", value, ""), "4294967296"));
  EXPECT_FALSE(accepts(unsigned_flag("n", value, ""), "4x"));
  EXPECT_EQ(value, UINT_MAX);
}

TEST(CliParsers, SharedRowsCarryTheirBounds) {
  unsigned value = 0;
  EXPECT_TRUE(accepts(executor_threads_flag(value), "0"));
  EXPECT_TRUE(accepts(executor_threads_flag(value), "4096"));
  EXPECT_FALSE(accepts(executor_threads_flag(value), "4097"));
  EXPECT_TRUE(accepts(sim_cache_mb_flag(value), "0"));
  EXPECT_TRUE(accepts(sim_cache_mb_flag(value), "1048576"));
  EXPECT_FALSE(accepts(sim_cache_mb_flag(value), "1048577"));
  std::string text;
  EXPECT_FALSE(accepts(sim_store_flag(text), ""));
  EXPECT_TRUE(accepts(sim_store_flag(text), "dir"));
  EXPECT_FALSE(accepts(text_flag("csv", "PATH", text, ""), ""));
  EXPECT_TRUE(accepts(text_flag("aging-model", "NAME", text, ""), "pbti-hci"));
  EXPECT_EQ(text, "pbti-hci");
}

TEST(CliParsers, RealRowsEnforceTheirBound) {
  double value = 0.0;
  EXPECT_FALSE(accepts(real_flag("d", "SEC", value, "", true), "0"));
  EXPECT_FALSE(accepts(real_flag("d", "SEC", value, "", true), "-1"));
  EXPECT_TRUE(accepts(real_flag("d", "SEC", value, "", true), "1e-300"));
  EXPECT_EQ(value, 1e-300);
  EXPECT_FALSE(accepts(real_flag("d", "SEC", value, "", true), "85abc"));
  EXPECT_TRUE(accepts(real_flag("t", "C", value, ""), "-1e300"));
  EXPECT_FALSE(accepts(real_flag("t", "C", value, ""), "inf"));
  EXPECT_FALSE(accepts(real_flag("t", "C", value, ""), "nan"));
  EXPECT_FALSE(accepts(real_flag("t", "C", value, ""), "1e999"));
  EXPECT_FALSE(accepts(real_flag("t", "C", value, ""), ""));
}

// ---- the table --------------------------------------------------------------

/// The FlagError message parse() throws for `args`, or "" if accepted.
std::string rejection(FlagTable& table, const std::vector<std::string>& args) {
  try {
    table.parse(args);
    return "";
  } catch (const FlagError& error) {
    return error.what();
  }
}

TEST(FlagTable, RejectsMalformedFlagsNamingThem) {
  unsigned jobs = 0;
  bool quiet = false;
  const auto make = [&] {
    FlagTable table("prog");
    table.add(unsigned_flag("jobs", jobs, "budget"))
        .add(switch_flag("quiet", quiet, "be quiet"));
    return table;
  };
  FlagTable unknown = make();
  EXPECT_NE(rejection(unknown, {"--bogus"}).find("unknown flag --bogus"),
            std::string::npos);
  FlagTable switch_value = make();
  EXPECT_NE(rejection(switch_value, {"--quiet=1"}).find("--quiet"),
            std::string::npos);
  EXPECT_FALSE(quiet);
  FlagTable missing_value = make();
  EXPECT_NE(rejection(missing_value, {"--jobs"}).find("--jobs"),
            std::string::npos);
  FlagTable bad_value = make();
  EXPECT_NE(rejection(bad_value, {"--jobs=4x"}).find("--jobs"),
            std::string::npos);
  FlagTable positional = make();
  EXPECT_NE(rejection(positional, {"file.json"}).find("'file.json'"),
            std::string::npos);
  EXPECT_EQ(jobs, 0u);
}

TEST(FlagTable, LastValueWinsAndRepeatableRowsAccumulate) {
  unsigned jobs = 0;
  std::vector<std::string> tags;
  FlagTable table("prog");
  table.add(unsigned_flag("jobs", jobs, "budget"))
      .add({.name = "tag", .metavar = "T", .help = "a tag (repeatable)",
            .expects = "a tag", .apply = [&](const std::string& value) {
              tags.push_back(value);
              return true;
            }});
  table.parse({"--jobs=3", "--tag=a", "--jobs=5", "--tag=b"});
  EXPECT_EQ(jobs, 5u);
  EXPECT_EQ(tags, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(table.seen("jobs"));
  EXPECT_TRUE(table.seen("tag"));
}

TEST(FlagTable, RequiresAndExcludesRules) {
  std::string journal, materialize, csv;
  bool resume = false;
  unsigned shard = 1;
  const auto make = [&] {
    FlagTable table("prog");
    table.add(text_flag("journal", "PATH", journal, "journal"))
        .add(switch_flag("resume", resume, "resume"))
        .add(text_flag("materialize", "DIR", materialize, "materialize"))
        .add(text_flag("csv", "PATH", csv, "csv"))
        .add({.name = "shard", .metavar = "N", .help = "shard count",
              .expects = "a number",
              .apply = [&](const std::string& v) {
                return parse_unsigned_flag(v, shard);
              },
              .inert = [&] { return shard == 1; }})
        .require("resume", "journal")
        .exclude("materialize", {"csv", "shard"});
    return table;
  };
  FlagTable lone_resume = make();
  EXPECT_EQ(rejection(lone_resume, {"--resume"}),
            "--resume requires --journal");
  FlagTable resume_with_journal = make();
  EXPECT_EQ(rejection(resume_with_journal, {"--resume", "--journal=j"}), "");
  FlagTable conflict = make();
  EXPECT_EQ(rejection(conflict, {"--csv=x", "--materialize=d"}),
            "--materialize cannot be used with --csv");
  // An inert value counts as absent for the rules; a real one does not.
  FlagTable inert = make();
  EXPECT_EQ(rejection(inert, {"--materialize=d", "--shard=1"}), "");
  FlagTable live = make();
  EXPECT_EQ(rejection(live, {"--materialize=d", "--shard=2"}),
            "--materialize cannot be used with --shard");
  // A rule naming no row is a programming error, not a rejection.
  FlagTable typo = make();
  typo.require("resume", "typo");
  try {
    typo.parse({"--resume", "--journal=j"});
    ADD_FAILURE() << "a rule naming no row must throw";
  } catch (const FlagError& error) {
    ADD_FAILURE() << "rejected instead: " << error.what();
  } catch (const std::logic_error&) {
  }
}

TEST(FlagTable, CollectsPositionalsUpToItsLimit) {
  bool quiet = false;
  FlagTable table("prog", "<a> <b>", 2);
  table.add(switch_flag("quiet", quiet, "be quiet"));
  table.parse({"one", "--quiet", "-5"});
  EXPECT_EQ(table.positionals(), (std::vector<std::string>{"one", "-5"}));
  EXPECT_TRUE(quiet);
  FlagTable full("prog", "<a>", 1);
  EXPECT_NE(rejection(full, {"one", "two"}).find("'two'"), std::string::npos);
}

TEST(FlagTable, UsageListsVisibleRowsOnly) {
  unsigned jobs = 0;
  std::string fault;
  FlagTable table("prog", "<input>...", 10);
  table.add(unsigned_flag("jobs", jobs, "concurrency budget"))
      .add({.name = "inject-fault", .metavar = "SPEC", .help = "test only",
            .expects = "a fault", .apply = [&](const std::string& v) {
              fault = v;
              return true;
            },
            .hidden = true});
  const std::string usage = table.usage();
  EXPECT_EQ(usage.rfind("usage: prog <input>... [--jobs=N]\n", 0), 0u)
      << usage;
  EXPECT_NE(usage.find("--jobs=N  concurrency budget"), std::string::npos);
  EXPECT_EQ(usage.find("inject-fault"), std::string::npos);
  // Hidden rows still parse.
  table.parse({"--inject-fault=3:exit"});
  EXPECT_EQ(fault, "3:exit");
}

}  // namespace
}  // namespace dnnlife::util
