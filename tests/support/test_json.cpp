#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace ara::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null")->is_null());
  EXPECT_TRUE(parse("true")->boolean);
  EXPECT_FALSE(parse("false")->boolean);
  EXPECT_DOUBLE_EQ(parse("42")->number, 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.5")->number, -3.5);
  EXPECT_DOUBLE_EQ(parse("1.25e2")->number, 125.0);
  EXPECT_EQ(parse("\"hi\"")->string, "hi");
}

TEST(Json, ParsesNestedStructure) {
  const auto v = parse(R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  const Value* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  const Value* b = a->array[2].find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string, "x");
  const Value* c = v->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->find("d")->is_null());
}

TEST(Json, ObjectKeepsInsertionOrder) {
  const auto v = parse(R"({"z": 1, "a": 2})");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->object.size(), 2u);
  EXPECT_EQ(v->object[0].first, "z");
  EXPECT_EQ(v->object[1].first, "a");
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")")->string, "a\"b\\c\nd\te");
  EXPECT_EQ(parse(R"("A")")->string, "A");
}

TEST(Json, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(parse("", &err).has_value());
  EXPECT_FALSE(parse("{", &err).has_value());
  EXPECT_FALSE(parse("[1,]", &err).has_value());
  EXPECT_FALSE(parse("{\"a\" 1}", &err).has_value());
  EXPECT_FALSE(parse("\"unterminated", &err).has_value());
  EXPECT_FALSE(parse("1 2", &err).has_value());
  EXPECT_FALSE(parse("nul", &err).has_value());
  EXPECT_NE(err.find("offset"), std::string::npos);
}

TEST(Json, ParsesEveryEscape) {
  EXPECT_EQ(parse(R"("\"\\\/\b\f\n\r\t")")->string, "\"\\/\b\f\n\r\t");
  EXPECT_EQ(parse(R"("\u0041\u00e9\u20ac\u0000z")")->string,
            std::string("A\xc3\xa9\xe2\x82\xac\0z", 8));
  EXPECT_EQ(parse(R"("\u00E9")")->string, "\xc3\xa9") << "hex digits of either case";
  EXPECT_EQ(parse(R"("")")->string, "");
  EXPECT_EQ(parse(R"("\\")")->string, "\\");
  EXPECT_EQ(parse(R"("x\\")")->string, "x\\");
  EXPECT_EQ(parse(R"("\\x")")->string, "\\x");
}

TEST(Json, LongUnescapedRunsSurviveIntact) {
  std::string run;
  for (int i = 0; i < 100000; ++i) run += static_cast<char>('a' + i % 26);
  EXPECT_EQ(parse("\"" + run + "\"")->string, run);
  // Runs broken up by escapes at the start, the middle and the end.
  const std::string mixed = "\\n" + run + "\\t" + run + "\\\"";
  EXPECT_EQ(parse("\"" + mixed + "\"")->string, "\n" + run + "\t" + run + "\"");
  const auto v = parse("{\"" + run + "\": [\"" + run + "\", \"\\u0041" + run + "\"]}");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->object.size(), 1u);
  EXPECT_EQ(v->object[0].first, run);
  ASSERT_EQ(v->object[0].second.array.size(), 2u);
  EXPECT_EQ(v->object[0].second.array[0].string, run);
  EXPECT_EQ(v->object[0].second.array[1].string, "A" + run);
}

TEST(Json, RawControlCharactersAndNonAsciiPassThroughStrings) {
  // The parser is lenient about raw control bytes inside strings: they are
  // kept verbatim, not rejected.
  const std::string raw = std::string("a\x01" "b\tc\nd\re\0f\x1f", 12) + "\xc3\xa9\xff";
  const auto v = parse("\"" + raw + "\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string, raw);
}

TEST(Json, StringErrorsNameTheirOffset) {
  const auto error_of = [](std::string_view text) {
    std::string err;
    EXPECT_FALSE(parse(text, &err).has_value()) << text;
    return err;
  };
  EXPECT_EQ(error_of("\"unterminated"), "offset 13: unterminated string");
  EXPECT_EQ(error_of("\"ends in a backslash\\"), "offset 21: unterminated string");
  EXPECT_EQ(error_of("\"bad \\q escape\""), "offset 7: unknown escape");
  EXPECT_EQ(error_of(R"("\u12")"), "offset 3: truncated \\u escape");
  EXPECT_EQ(error_of(R"("\u12zz")"), "offset 3: bad \\u escape");
  EXPECT_EQ(error_of(R"("\u+123")"), "offset 3: bad \\u escape");
  EXPECT_EQ(error_of(R"({"a":"x)"), "offset 7: unterminated string");
  EXPECT_EQ(error_of(R"({"a)"), "offset 3: unterminated string");
  EXPECT_EQ(error_of(R"({a:1})"), "offset 1: expected string");
  EXPECT_EQ(error_of("\"" + std::string(5000, 'x')), "offset 5001: unterminated string");
}

/// The escaper byte for byte as it first shipped: one switch per character.
std::string reference_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(Json, EscapeMatchesTheReferenceOnEveryByte) {
  std::string all;
  for (int c = 0; c < 256; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(escape(one), reference_escape(one)) << c;
    all += one;
    all += "run of plain text ";
  }
  EXPECT_EQ(escape(all), reference_escape(all));
  EXPECT_EQ(escape(""), "");
  std::string out = "kept:";
  append_escaped(out, "a\"b\n");
  EXPECT_EQ(out, "kept:a\\\"b\\n");
}

TEST(Json, EscapeRoundTripsThroughParse) {
  const std::string nasty = "quote \" slash \\ newline \n tab \t ctrl \x01 done";
  const auto v = parse("\"" + escape(nasty) + "\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string, nasty);
}

}  // namespace
}  // namespace ara::json
