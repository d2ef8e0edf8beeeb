#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <streambuf>
#include <string>

namespace parastack::obs {
namespace {

std::string render_string(std::string_view s) {
  std::string out;
  json_string(out, s);
  return out;
}

std::string render_number(double v) {
  std::string out;
  json_number(out, v);
  return out;
}

/// The rendering json_number promises: printf's %.9g in the C locale.
std::string printf_reference(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

template <typename T>
std::string ostream_reference(T v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// The escape the journal has always written for one character.
std::string escape_reference(char c) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      return buf;
    }
  }
}

TEST(JsonString, PlainAscii) {
  EXPECT_EQ(render_string("MPI_Allreduce"), "\"MPI_Allreduce\"");
  EXPECT_EQ(render_string(""), "\"\"");
}

TEST(JsonString, EscapesSpecials) {
  EXPECT_EQ(render_string("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(render_string("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(render_string("a\nb\tc"), "\"a\\nb\\tc\"");
}

TEST(JsonString, EscapesControlCharacters) {
  EXPECT_EQ(render_string(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonString, EscapesEveryControlCharacterLikeTheReference) {
  for (int code = 0; code < 0x20; ++code) {
    const char c = static_cast<char>(code);
    const std::string text = {'x', c, 'y'};
    EXPECT_EQ(render_string(text), "\"x" + escape_reference(c) + "y\"")
        << "code " << code;
  }
  EXPECT_EQ(render_string("\""), "\"" + escape_reference('"') + "\"");
  EXPECT_EQ(render_string("\\"), "\"" + escape_reference('\\') + "\"");
}

TEST(JsonString, EscapesBetweenAndAroundRuns) {
  EXPECT_EQ(render_string("\"lead\\mid\x1ftail\""),
            "\"\\\"lead\\\\mid\\u001ftail\\\"\"");
  // DEL and bytes above 0x7f pass through untouched.
  EXPECT_EQ(render_string("\x7f\x80\xff"), "\"\x7f\x80\xff\"");
}

TEST(JsonNumber, IntegersRenderWithoutExponent) {
  EXPECT_EQ(render_number(0.0), "0");
  EXPECT_EQ(render_number(42.0), "42");
  EXPECT_EQ(render_number(-3.0), "-3");
}

TEST(JsonNumber, FractionsAreStable) {
  EXPECT_EQ(render_number(0.25), "0.25");
  EXPECT_EQ(render_number(0.25), render_number(0.25));
}

TEST(JsonNumber, NonFiniteDegradesToNull) {
  EXPECT_EQ(render_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render_number(std::nan("")), "null");
}

TEST(JsonNumber, MatchesPrintfOnEdgeValues) {
  const double values[] = {
      0.0, -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      1e-310, DBL_MIN, DBL_MAX, -DBL_MAX, DBL_EPSILON,
      1e21, 1e-7, 1e-5, 1e-4, 1e15, 1e16, -1e21,
      1.0, -1.0, 7.0, 100.0, 123456789.0, 1234567890.0, 999999999.0,
      999999999.5, 9007199254740992.0, -9007199254740993.0,
      static_cast<double>(INT64_MIN), static_cast<double>(UINT64_MAX),
      0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5, 0.05, 400.0, 61.234567891234,
      3.14159265358979, 1.0000000005, 0.99999999995};
  for (const double v : values) {
    EXPECT_EQ(render_number(v), printf_reference(v)) << printf_reference(v);
  }
}

TEST(JsonNumber, MatchesPrintfOnRandomDoubles) {
  std::mt19937_64 gen(0x9E3779B97F4A7C15);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> decade(-12, 12);
  int compared = 0;
  while (compared < 100000) {
    // Alternate raw bit patterns (every exponent, subnormals included)
    // with telemetry-like magnitudes.
    const double v =
        compared % 2 == 0
            ? std::bit_cast<double>(gen())
            : (unit(gen) - 0.5) * std::pow(10.0, decade(gen));
    if (!std::isfinite(v)) continue;
    ++compared;
    const std::string got = render_number(v);
    const std::string want = printf_reference(v);
    if (got != want) {
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": to_chars " << got << ", printf " << want;
      return;
    }
  }
}

TEST(JsonInteger, MatchesOstream) {
  const std::int64_t signed_values[] = {0, 1, -1, 42, -42, INT32_MIN,
                                        INT32_MAX, INT64_MIN, INT64_MAX};
  for (const std::int64_t v : signed_values) {
    std::string out;
    json_integer(out, v);
    EXPECT_EQ(out, ostream_reference(v));
  }
  const std::uint64_t unsigned_values[] = {0, 1, 4294967296u, UINT64_MAX};
  for (const std::uint64_t v : unsigned_values) {
    std::string out;
    json_integer(out, v);
    EXPECT_EQ(out, ostream_reference(v));
  }
  std::string out;
  json_integer(out, std::numeric_limits<int>::min());
  EXPECT_EQ(out, "-2147483648");
}

TEST(JsonObject, CommaDisciplineAndTypes) {
  std::ostringstream out;
  std::string buffer;
  {
    JsonObject object(out, buffer);
    object.field("s", "x").field("b", true).field("i", -7);
    object.field("u", std::uint64_t{9}).field("d", 0.5);
    object.raw("a", "[1,2]");
  }
  EXPECT_EQ(out.str(),
            "{\"s\":\"x\",\"b\":true,\"i\":-7,\"u\":9,\"d\":0.5,"
            "\"a\":[1,2]}");
}

TEST(JsonObject, IntegerFieldExtremes) {
  std::ostringstream out;
  std::string buffer;
  JsonObject(out, buffer)
      .field("min", std::int64_t{INT64_MIN})
      .field("max", std::uint64_t{UINT64_MAX})
      .field("nan", std::nan(""));
  EXPECT_EQ(out.str(),
            "{\"min\":-9223372036854775808,\"max\":18446744073709551615,"
            "\"nan\":null}");
}

TEST(JsonObject, EmptyObjectAndIdempotentDone) {
  std::ostringstream out;
  std::string buffer;
  JsonObject object(out, buffer);
  object.done();
  object.done();  // destructor will close a third time
  EXPECT_EQ(out.str(), "{}");
}

void write_until_told_to_stop(std::ostream& out, std::string& buffer,
                              bool stop_early) {
  JsonObject line(out, buffer, "\n");
  line.field("first", 1);
  if (stop_early) return;
  line.field("second", 2);
}

TEST(JsonObject, EarlyReturnStillClosesTheLine) {
  std::ostringstream out;
  std::string buffer;
  write_until_told_to_stop(out, buffer, true);
  write_until_told_to_stop(out, buffer, false);
  EXPECT_EQ(out.str(), "{\"first\":1}\n{\"first\":1,\"second\":2}\n");
}

/// Counts the calls that reach the stream buffer.
class CountingBuf final : public std::streambuf {
 public:
  int calls = 0;
  std::string text;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    ++calls;
    text.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    ++calls;
    if (c != traits_type::eof()) text += traits_type::to_char_type(c);
    return c;
  }
};

TEST(JsonObject, EachLineIsOneWriteFromTheReusedBuffer) {
  CountingBuf buf;
  std::ostream out(&buf);
  std::string buffer;
  {
    JsonObject line(out, buffer, "\n");
    line.field("ev", "sample").field("escaped", "a\"b").field("q", 0.125);
  }
  EXPECT_EQ(buf.calls, 1);
  {
    JsonObject line(out, buffer, "\n");
    line.field("ev", "hang");
  }
  EXPECT_EQ(buf.calls, 2);
  EXPECT_EQ(buffer, "{\"ev\":\"hang\"}\n");  // cleared, not appended to
  EXPECT_EQ(buf.text,
            "{\"ev\":\"sample\",\"escaped\":\"a\\\"b\",\"q\":0.125}\n"
            "{\"ev\":\"hang\"}\n");
}

TEST(JsonObject, NestedObjectAppendsToTheDocument) {
  std::string doc = "{\"outer\":";
  {
    JsonObject inner(doc);
    inner.field("n", 3);
  }
  doc += '}';
  EXPECT_EQ(doc, "{\"outer\":{\"n\":3}}");
}

TEST(JsonKey, CommaBeforeEveryMemberButTheFirst) {
  std::string doc = "{";
  bool first = true;
  json_key(doc, first, "a");
  doc += '1';
  json_key(doc, first, "b");
  doc += "2}";
  EXPECT_EQ(doc, "{\"a\":1,\"b\":2}");
}

}  // namespace
}  // namespace parastack::obs
