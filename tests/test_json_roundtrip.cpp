// Property/fuzz tests for util/json: write → parse round-trips randomized
// value trees exactly (numbers bit for bit), and a corpus of malformed,
// truncated and mutated inputs always fails with a strict
// std::invalid_argument naming the offending context — never a crash, an
// accept, or a different exception type. The sanitizer CI job gives the
// no-crash half of the contract real teeth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace dnnlife::util {
namespace {

// ---- randomized document generator -------------------------------------------

double random_number(Xoshiro256ss& rng) {
  switch (rng.next_below(4)) {
    case 0: return static_cast<double>(rng.next_below(2000)) - 1000.0;
    case 1: return rng.next_double() * 2.0 - 1.0;
    case 2: return (rng.next_double() - 0.5) * 1e12;
    default: {
      // Raw bit patterns cover subnormals and extreme exponents; reroll
      // non-finite values (JSON cannot carry them).
      double value = 0.0;
      do {
        const std::uint64_t bits = rng.next();
        std::memcpy(&value, &bits, sizeof value);
      } while (!std::isfinite(value));
      return value;
    }
  }
}

std::string random_string(Xoshiro256ss& rng) {
  static const char* const corpus[] = {
      "", "plain", "with space", "quote\"inside", "back\\slash",
      "tab\tnewline\n", "control\x01\x1f", "unicode \xc3\xa9\xe2\x82\xac",
      "slash/sl", "\r\b\f"};
  std::string text = corpus[rng.next_below(std::size(corpus))];
  for (std::uint64_t i = rng.next_below(6); i-- > 0;)
    text.push_back(static_cast<char>('a' + rng.next_below(26)));
  return text;
}

JsonValue random_value(Xoshiro256ss& rng, unsigned depth) {
  const std::uint64_t kind = rng.next_below(depth == 0 ? 4 : 6);
  switch (kind) {
    case 0: return JsonValue::make_null();
    case 1: return JsonValue::make_bool(rng.next_bernoulli(0.5));
    case 2: return JsonValue::make_number(random_number(rng));
    case 3: return JsonValue::make_string(random_string(rng));
    case 4: {
      JsonValue array = JsonValue::make_array();
      for (std::uint64_t i = rng.next_below(5); i-- > 0;)
        array.push_back(random_value(rng, depth - 1));
      return array;
    }
    default: {
      JsonValue object = JsonValue::make_object();
      const std::uint64_t members = rng.next_below(5);
      for (std::uint64_t i = 0; i < members; ++i)
        object.set("k" + std::to_string(i) + random_string(rng),
                   random_value(rng, depth - 1));
      return object;
    }
  }
}

void expect_deep_equal(const JsonValue& a, const JsonValue& b,
                       const std::string& where) {
  ASSERT_EQ(a.type(), b.type()) << where;
  switch (a.type()) {
    case JsonValue::Type::kNull: break;
    case JsonValue::Type::kBool: EXPECT_EQ(a.as_bool(), b.as_bool()) << where; break;
    case JsonValue::Type::kNumber:
      // Bitwise: the shortest-round-trip writer must lose nothing.
      EXPECT_EQ(a.as_number(), b.as_number()) << where;
      break;
    case JsonValue::Type::kString:
      EXPECT_EQ(a.as_string(), b.as_string()) << where;
      break;
    case JsonValue::Type::kArray: {
      ASSERT_EQ(a.items().size(), b.items().size()) << where;
      for (std::size_t i = 0; i < a.items().size(); ++i)
        expect_deep_equal(a.items()[i], b.items()[i],
                          where + "[" + std::to_string(i) + "]");
      break;
    }
    case JsonValue::Type::kObject: {
      ASSERT_EQ(a.members().size(), b.members().size()) << where;
      for (std::size_t i = 0; i < a.members().size(); ++i) {
        EXPECT_EQ(a.members()[i].first, b.members()[i].first) << where;
        expect_deep_equal(a.members()[i].second, b.members()[i].second,
                          where + "." + a.members()[i].first);
      }
      break;
    }
  }
}

// ---- round-trip properties ---------------------------------------------------

TEST(JsonRoundTrip, RandomizedDocumentsSurviveWriteParseExactly) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Xoshiro256ss rng(seed);
    const JsonValue original = random_value(rng, 4);
    for (const int indent : {-1, 0, 2, 4}) {
      const std::string text = write_json(original, {indent});
      const JsonValue reparsed = JsonValue::parse(text);
      expect_deep_equal(original, reparsed,
                        "seed " + std::to_string(seed) + " indent " +
                            std::to_string(indent));
      // Serialisation is canonical per indent: write(parse(write(x))) ==
      // write(x), the fixed point shard manifests hash.
      EXPECT_EQ(write_json(reparsed, {indent}), text);
    }
  }
}

TEST(JsonRoundTrip, NumberReprIsShortestAndExact) {
  EXPECT_EQ(json_number_repr(85.0), "85");
  EXPECT_EQ(json_number_repr(0.5), "0.5");
  EXPECT_EQ(json_number_repr(-0.25), "-0.25");
  EXPECT_EQ(json_number_repr(0.0), "0");
  // Signed Laplace values: both signs, magnitudes over many decades.
  const CounterRng rng(1234);
  int negative = 0;
  double smallest = std::numeric_limits<double>::infinity();
  double largest = 0.0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    const double value = CounterRng::laplace_of_draw(
        rng.draw_at(seed), 1e6, [](double x) { return std::log(x); });
    const std::string repr = json_number_repr(value);
    EXPECT_EQ(JsonValue::parse(repr).as_number(), value) << repr;
    negative += value < 0.0 ? 1 : 0;
    smallest = std::min(smallest, std::abs(value));
    largest = std::max(largest, std::abs(value));
  }
  EXPECT_GT(negative, 500);
  EXPECT_LT(negative, 1500);
  EXPECT_GT(largest / smallest, 1e4);
}

TEST(JsonRoundTrip, WriterRejectsNonFiniteNumbers) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    JsonValue object = JsonValue::make_object();
    object.set("x", JsonValue::make_number(bad));
    EXPECT_THROW(write_json(object), std::invalid_argument);
    EXPECT_THROW(json_number_repr(bad), std::invalid_argument);
  }
}

TEST(JsonRoundTrip, BuilderMutatorsEnforceTypesAndReplaceInPlace) {
  JsonValue object = JsonValue::make_object();
  object.set("a", JsonValue::make_number(1.0));
  object.set("b", JsonValue::make_number(2.0));
  object.set("a", JsonValue::make_number(3.0));  // replace keeps the order
  ASSERT_EQ(object.members().size(), 2u);
  EXPECT_EQ(object.members()[0].first, "a");
  EXPECT_EQ(object.at("a").as_number(), 3.0);
  EXPECT_NE(object.find_mutable("b"), nullptr);
  EXPECT_EQ(object.find_mutable("missing"), nullptr);
  EXPECT_THROW(object.push_back(JsonValue::make_null()),
               std::invalid_argument);
  JsonValue array = JsonValue::make_array();
  array.push_back(JsonValue::make_string("x"));
  EXPECT_THROW(array.set("k", JsonValue::make_null()), std::invalid_argument);
  ASSERT_EQ(array.items().size(), 1u);
  array.mutable_items()[0] = JsonValue::make_bool(true);
  EXPECT_TRUE(array.items()[0].as_bool());
}

// ---- malformed-input corpus --------------------------------------------------

struct MalformedCase {
  const char* text;
  const char* expect;  ///< substring the error message must carry
};

TEST(JsonMalformed, CorpusFailsStrictlyNamingTheContext) {
  const MalformedCase corpus[] = {
      {"", "unexpected end of input"},
      {"   ", "unexpected end of input"},
      {"{", "unexpected end of input"},
      {"[1, 2", "unexpected end of input"},
      {"\"abc", "unterminated string"},
      {"\"esc\\", "unterminated escape"},
      {"\"bad\\q\"", "unknown escape"},
      {"\"trunc\\u12\"", "truncated \\u escape"},
      {"\"trunc\\u1", "truncated \\u escape"},
      {"\"hex\\u12g4\"", "bad \\u escape digit"},
      {"{\"a\" 1}", "expected ':'"},
      {"{\"a\": 1 \"b\": 2}", "expected '}'"},
      {"{a: 1}", "expected a quoted member name"},
      {"{\"a\": 1,}", "expected a quoted member name"},
      {"{\"k\": 1, \"k\": 2}", "duplicate member 'k'"},
      {"[1 2]", "expected ']'"},
      {"tru", "unexpected token"},
      {"falsy", "unexpected token"},
      {"false false", "trailing characters"},
      {"nul", "unexpected token"},
      {"inf", "malformed number"},
      {"nan", "unexpected token"},
      {"-", "malformed number"},
      {"1.2.3", "malformed number"},
      {"1e", "malformed number"},
      {"+1", "malformed number"},
      {"{} extra", "trailing characters"},
      {"1 2", "trailing characters"},
  };
  for (const MalformedCase& test : corpus) {
    try {
      JsonValue::parse(test.text);
      FAIL() << "accepted malformed input: " << test.text;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("JSON error at offset"), std::string::npos)
          << test.text << " -> " << message;
      EXPECT_NE(message.find(test.expect), std::string::npos)
          << test.text << " -> " << message;
    }
  }
}

TEST(JsonMalformed, EveryTruncationOfAValidDocumentFailsCleanly) {
  const std::string document =
      "{\"name\": \"x\", \"values\": [1, 2.5, -3e2, true, false, null],\n"
      " \"nested\": {\"s\": \"a\\\"b\\u00e9\", \"empty\": {}, \"list\": []}}";
  ASSERT_NO_THROW(JsonValue::parse(document));
  for (std::size_t length = 0; length < document.size(); ++length) {
    try {
      JsonValue::parse(document.substr(0, length));
      FAIL() << "accepted truncation at " << length;
    } catch (const std::invalid_argument&) {
      // strict failure is the contract
    }
  }
}

TEST(JsonMalformed, RandomMutationsNeverCrashOrThrowAnythingElse) {
  const std::string document =
      "{\"a\": [1, 2, 3], \"b\": {\"c\": \"text\", \"d\": -1.5e3},"
      " \"e\": [true, false, null, \"\\u0041\"]}";
  Xoshiro256ss rng(0xf22dULL);
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = document;
    const std::uint64_t edits = 1 + rng.next_below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t at = rng.next_below(mutated.size());
      mutated[at] = static_cast<char>(rng.next_below(256));
    }
    try {
      JsonValue::parse(mutated);  // surviving a mutation is fine
    } catch (const std::invalid_argument&) {
      // the only acceptable failure mode
    }
  }
}

TEST(JsonMalformed, DuplicateKeyErrorNamesTheKeyAtAnyDepth) {
  try {
    JsonValue::parse("{\"outer\": {\"dup\": 1, \"dup\": 2}}");
    FAIL() << "nested duplicate accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate member 'dup'"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dnnlife::util
