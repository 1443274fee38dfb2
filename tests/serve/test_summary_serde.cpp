// Tests for the unit-summary serialization (the cache payload format):
// write -> parse -> write must be byte-stable, parsed fields must survive
// the round trip, and parsing must be total — malformed or truncated input
// yields nullopt, never a crash or a wild allocation.
#include "serve/summary.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "frontend/compile.hpp"
#include "support/diagnostics.hpp"

namespace ara::serve {
namespace {

constexpr const char* kUnit = R"(
subroutine p1(a, j)
  integer, dimension(1:200, 1:200) :: a
  integer :: j, i, k
  do i = 1, 100
    do k = 1, 100
      a(i, k) = i + k + j
    end do
  end do
end subroutine p1

subroutine add
  integer, dimension(1:200, 1:200) :: a
  integer :: m, j
  m = 10
  do j = 1, m
    call p1(a, j)
    call helper(a, j)
  end do
end subroutine add
)";

UnitSummary summarize(const char* text) {
  ir::Program program;
  program.sources.add("unit.f", text, Language::Fortran);
  DiagnosticEngine diags(&program.sources);
  std::vector<fe::ExternRef> externs;
  fe::CompileOptions copts;
  copts.external_calls = true;
  EXPECT_TRUE(fe::compile_program(program, diags, copts, &externs)) << diags.render();
  return summarize_unit(program, externs);
}

TEST(SummarySerde, RoundTripIsByteStable) {
  const UnitSummary unit = summarize(kUnit);
  const std::string bytes = write_unit_summary(unit);
  const std::optional<UnitSummary> parsed = parse_unit_summary(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(write_unit_summary(*parsed), bytes);
}

TEST(SummarySerde, RoundTripPreservesStructure) {
  const UnitSummary unit = summarize(kUnit);
  const auto parsed = parse_unit_summary(write_unit_summary(unit));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->source_name, "unit.f");
  EXPECT_EQ(parsed->language, Language::Fortran);
  EXPECT_EQ(parsed->symbols.size(), unit.symbols.size());
  ASSERT_EQ(parsed->procs.size(), 2u);  // p1, add
  EXPECT_EQ(parsed->procs[0].records.size(), unit.procs[0].records.size());
  EXPECT_EQ(parsed->procs[1].callsites.size(), 2u);  // p1 + unresolved helper
  // `helper` is not defined in this unit: one extern reference.
  ASSERT_EQ(parsed->externs.size(), 1u);
  EXPECT_EQ(parsed->externs[0].name, "helper");
  EXPECT_EQ(parsed->cfg_text, unit.cfg_text);
}

TEST(SummarySerde, ReadsAnOlderAbsentActualAsUntranslatable) {
  // Entries written before every actual was digested may hold "-" for an
  // argument without a value; it reads, and is written back, as "u".
  std::string bytes = write_unit_summary(summarize(kUnit));
  const std::size_t call = bytes.find("\ncall p1 ");
  ASSERT_NE(call, std::string::npos);
  const std::size_t eol = bytes.find('\n', call + 1);
  const std::size_t last = bytes.rfind(' ', eol);  // the second actual, j
  bytes.replace(last + 1, eol - last - 1, "-");
  const std::optional<UnitSummary> parsed = parse_unit_summary(bytes);
  ASSERT_TRUE(parsed.has_value());
  const ActualSummary& j = parsed->procs[1].callsites[0].actuals[1];
  EXPECT_FALSE(j.is_array);
  EXPECT_FALSE(j.affine.has_value());
  const std::string rewritten = write_unit_summary(*parsed);
  EXPECT_NE(rewritten.find(bytes.substr(call, last + 1 - call) + "u\n"), std::string::npos);
}

TEST(SummarySerde, RejectsGarbage) {
  EXPECT_FALSE(parse_unit_summary("").has_value());
  EXPECT_FALSE(parse_unit_summary("\n").has_value());
  EXPECT_FALSE(parse_unit_summary("not a summary\n").has_value());
  EXPECT_FALSE(parse_unit_summary("ARA-UNIT 2\n").has_value());  // future version
}

TEST(SummarySerde, RejectsEveryTruncation) {
  // Chopping the serialized form anywhere must yield a clean parse failure.
  const std::string bytes = write_unit_summary(summarize(kUnit));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(parse_unit_summary(bytes.substr(0, len)).has_value()) << "len " << len;
  }
}

TEST(SummarySerde, RejectsOutOfRangeSymbolIndices) {
  const UnitSummary unit = summarize(kUnit);
  std::string bytes = write_unit_summary(unit);
  // Point the first proc at a symbol index past the table.
  const std::size_t pos = bytes.find("proc ");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 6, "proc 999");
  EXPECT_FALSE(parse_unit_summary(bytes).has_value());
}

TEST(SummarySerde, RejectsGiantCounts) {
  // A corrupted count must fail validation instead of driving a huge
  // reserve/parse loop.
  EXPECT_FALSE(parse_unit_summary("ARA-UNIT 1\n"
                                  "unit x.f F\n"
                                  "syms 99999999999999\n")
                   .has_value());
}

TEST(SummarySerde, RejectsUnknownSymbolKind) {
  std::string bytes = write_unit_summary(summarize(kUnit));
  const std::size_t pos = bytes.find("sym P");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 4] = 'Z';
  EXPECT_FALSE(parse_unit_summary(bytes).has_value());
}

}  // namespace
}  // namespace ara::serve
