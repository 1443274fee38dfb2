#include "support/csv.hpp"

#include <gtest/gtest.h>

#include <random>

namespace ara {
namespace {

/// One CSV line of `fields`. A lone empty field is written as `""`: an
/// empty line parses as no row.
std::string csv_line(const std::vector<std::string>& fields) {
  if (fields.size() == 1 && fields[0].empty()) return "\"\"\n";
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ',';
    append_csv_field(out, fields[i]);
  }
  return out + '\n';
}

TEST(CsvField, PlainFields) {
  EXPECT_EQ(csv_line({"a", "b", "c"}), "a,b,c\n");
  std::string out = "x";
  append_csv_field(out, "");
  append_csv_field(out, "plain text|1");
  EXPECT_EQ(out, "xplain text|1");
}

TEST(CsvField, QuotesSpecialCharacters) {
  EXPECT_EQ(csv_line({"a,b", "say \"hi\"", "multi\nline"}),
            "\"a,b\",\"say \"\"hi\"\"\",\"multi\nline\"\n");
  for (const std::string field : {",", "\"", "\n", "\r", "cr\r", "\"\""}) {
    std::string quoted;
    for (const char c : field) quoted += c == '"' ? std::string("\"\"") : std::string(1, c);
    std::string out;
    append_csv_field(out, field);
    EXPECT_EQ(out, "\"" + quoted + "\"") << field;
  }
}

TEST(CsvParse, SimpleRows) {
  const auto rows = parse_csv("a,b\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParse, EmptyFields) {
  const auto rows = parse_csv("a,,c\n,,\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvParse, QuotedFieldWithComma) {
  const auto rows = parse_csv("\"a,b\",c\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
}

TEST(CsvParse, EscapedQuote) {
  const auto rows = parse_csv("\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "say \"hi\"");
}

TEST(CsvParse, EmbeddedNewlineInsideQuotes) {
  const auto rows = parse_csv("\"two\nlines\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "two\nlines");
}

TEST(CsvParse, CrLfLineEndings) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(CsvParse, MissingTrailingNewline) {
  const auto rows = parse_csv("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParse, EmptyInput) { EXPECT_TRUE(parse_csv("").empty()); }

// Property: writer output always parses back to the original rows.
class CsvRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(CsvRoundTrip, RandomRowsSurviveRoundTrip) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nrows(1, 8);
  std::uniform_int_distribution<int> ncols(1, 6);
  std::uniform_int_distribution<int> len(0, 12);
  const std::string alphabet = "ab,\"\n xyz0\r9";
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);

  std::vector<std::vector<std::string>> rows;
  const int cols = ncols(rng);
  for (int r = nrows(rng); r > 0; --r) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) {
      std::string field;
      for (int k = len(rng); k > 0; --k) field += alphabet[pick(rng)];
      // Bare \r outside quotes is not representable; the writer quotes it,
      // so any content is fine.
      row.push_back(std::move(field));
    }
    rows.push_back(std::move(row));
  }

  std::string text;
  for (const auto& row : rows) text += csv_line(row);
  const auto parsed = parse_csv(text);
  EXPECT_EQ(parsed, rows) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTrip, ::testing::Range(0u, 25u));

}  // namespace
}  // namespace ara
