#include "common/json_writer.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <limits>
#include <string>

#include "common/str_util.h"
#include "json_checker.h"

namespace mrs {
namespace {

using testing_util::JsonChecker;

std::string Num(double v, int precision = 6) {
  std::string out;
  JsonWriter(&out).Num(v, precision);
  return out;
}

TEST(JsonWriterTest, AppendsToTheCallersString) {
  std::string out = "x";
  JsonWriter w(&out);
  w.Raw("{\"a\":").Int(-42).Raw(",\"b\":").UInt(18446744073709551615ull);
  w.Raw(",\"c\":").Num(1.5).Raw(",\"d\":").Str("q").Raw("}");
  EXPECT_EQ(out,
            "x{\"a\":-42,\"b\":18446744073709551615,\"c\":1.500000,"
            "\"d\":\"q\"}");
}

TEST(JsonWriterTest, FixedMatchesPrintf) {
  for (double v : {0.0, -0.0, 1.0, -1e-9, 4.9999995e-7, 5e-7, 5.0000005e-7,
                   0.1234565, 2.5e-6, 1e15, 123456789.987654321,
                   DBL_MAX, -DBL_MAX, DBL_MIN, DBL_TRUE_MIN, 5e-324}) {
    EXPECT_EQ(Num(v), StrFormat("%.6f", v)) << v;
    EXPECT_EQ(Num(v, 3), StrFormat("%.3f", v)) << v;
  }
}

TEST(JsonWriterTest, GeneralMatchesPrintf) {
  for (double v : {0.0, 1.0, 1.0 / 3.0, 1e-12, 6.02214076e23, 123456789.0}) {
    std::string out;
    JsonWriter(&out).NumG(v, 9);
    EXPECT_EQ(out, StrFormat("%.9g", v)) << v;
  }
}

TEST(JsonWriterTest, NonFiniteNumbersAreNull) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {inf, -inf, nan, -nan}) {
    EXPECT_EQ(Num(v), "null");
    std::string out;
    JsonWriter(&out).NumG(v, 9);
    EXPECT_EQ(out, "null");
  }
  std::string doc;
  JsonWriter(&doc).Raw("[").Num(inf).Raw(",").Num(nan).Raw("]");
  EXPECT_TRUE(JsonChecker(doc).Valid()) << doc;
}

TEST(JsonWriterTest, IntegerExtremes) {
  std::string out;
  JsonWriter(&out)
      .Int(std::numeric_limits<long long>::min())
      .Raw(" ")
      .Int(0)
      .Raw(" ")
      .UInt(0);
  EXPECT_EQ(out, "-9223372036854775808 0 0");
}

TEST(JsonWriterTest, StrEscapesQuotesBackslashesAndControls) {
  std::string out;
  JsonWriter(&out).Str("a\"b\\c\nd\re\tf\x01g\x1f");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001f\"");
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
}

TEST(JsonWriterTest, StrPassesUtf8AndNulThrough) {
  std::string out;
  JsonWriter(&out).Str(std::string("\xc3\xa9\0z", 4));
  EXPECT_EQ(out, std::string("\"\xc3\xa9\\u0000z\""));
}

}  // namespace
}  // namespace mrs
