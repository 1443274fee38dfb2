// Unit tests for the provenance ledger (obs/provenance.hpp): cause-kind
// serde tags, the thread-local sink and ambient-attribution scopes, the
// deterministic (unit, seq) merge order of the process-global ledger, the
// ara.prov.v1 JSONL writer, and the round trip through the v3 unit-summary
// serialization (the cache payload that replays provenance on warm runs).
#include "obs/provenance.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/summary.hpp"

namespace ara::obs {
namespace {

TEST(CauseKind, TagsRoundTripAndRejectUnknown) {
  const CauseKind kinds[] = {
      CauseKind::NonAffineSubscript, CauseKind::SubscriptedSubscript,
      CauseKind::NonAffineLoopBound, CauseKind::UnknownExtent,
      CauseKind::UnresolvedCall,     CauseKind::FmUnprojected,
      CauseKind::ActualNotAffine,    CauseKind::CalleeLocalEscape,
      CauseKind::CalleeImprecision,  CauseKind::UnionWidening,
      CauseKind::UnionDrop,          CauseKind::LimitDemotion,
      CauseKind::LoopNotParallel,    CauseKind::RecursionWidening,
  };
  for (const CauseKind k : kinds) {
    CauseKind back = CauseKind::NonAffineSubscript;
    ASSERT_TRUE(cause_from_string(to_string(k), &back)) << to_string(k);
    EXPECT_EQ(back, k);
    EXPECT_FALSE(describe(k).empty());
  }
  CauseKind back;
  EXPECT_FALSE(cause_from_string("definitely_not_a_cause", &back));
  EXPECT_FALSE(cause_from_string("", &back));
}

TEST(ProvSinkTest, RecordsAreDroppedWithoutASink) {
  EXPECT_FALSE(prov_capturing());
  prov_record(CauseKind::NonAffineSubscript, {"p", "a", "f.c", 3}, 0, "noise");
  prov_record_ambient(CauseKind::UnionDrop, -1, "noise");
  EXPECT_FALSE(prov_capturing());
}

TEST(ProvSinkTest, SinkStampsUnitAndSequence) {
  std::vector<ProvRecord> out;
  {
    const ProvSink sink(&out, 7);
    EXPECT_TRUE(prov_capturing());
    prov_record(CauseKind::NonAffineSubscript, {"p", "a", "f.c", 3}, 1, "first");
    prov_record(CauseKind::UnresolvedCall, {"p", "ext", "f.c", 9}, -1, "second");
  }
  EXPECT_FALSE(prov_capturing());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].unit, 7u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[0].kind, CauseKind::NonAffineSubscript);
  EXPECT_EQ(out[0].proc, "p");
  EXPECT_EQ(out[0].array, "a");
  EXPECT_EQ(out[0].dim, 1);
  EXPECT_EQ(out[0].line, 3u);
  EXPECT_EQ(out[1].seq, 1u);
  EXPECT_EQ(out[1].detail, "second");
}

TEST(ProvSinkTest, SinksNestAndRestore) {
  std::vector<ProvRecord> outer;
  std::vector<ProvRecord> inner;
  const ProvSink a(&outer, 0);
  prov_record(CauseKind::UnionWidening, {"p", "x", "f.f", 1});
  {
    const ProvSink b(&inner, 1);
    prov_record(CauseKind::UnionDrop, {"p", "y", "f.f", 2});
  }
  prov_record(CauseKind::UnionWidening, {"p", "z", "f.f", 3});
  ASSERT_EQ(outer.size(), 2u);
  EXPECT_EQ(outer[1].seq, 1u) << "outer sequence resumes after the nested sink";
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0].unit, 1u);
}

TEST(ProvScopeTest, AmbientContextAttributesDeepRecords) {
  std::vector<ProvRecord> out;
  const ProvSink sink(&out, 0);
  prov_record_ambient(CauseKind::FmUnprojected, 2, "no scope: silently dropped");
  EXPECT_TRUE(out.empty()) << "ambient records need a ProvScope, not just a sink";
  {
    const ProvScope scope({"proc_a", "arr_a", "a.f", 11});
    prov_record_ambient(CauseKind::FmUnprojected, 0, "outer");
    {
      const ProvScope nested({"proc_b", "arr_b", "b.f", 22});
      prov_record_ambient(CauseKind::UnionWidening, -1, "inner");
    }
    prov_record_ambient(CauseKind::UnionDrop, -1, "outer again");
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].proc, "proc_a");
  EXPECT_EQ(out[0].array, "arr_a");
  EXPECT_EQ(out[0].line, 11u);
  EXPECT_EQ(out[1].proc, "proc_b");
  EXPECT_EQ(out[2].proc, "proc_a") << "nested scope restores the outer context";
}

TEST(SortProvenanceTest, SortsByUnitThenSequence) {
  std::vector<ProvRecord> unit2;
  std::vector<ProvRecord> unit0;
  {
    const ProvSink s2(&unit2, 2);
    prov_record(CauseKind::UnionDrop, {"p2", "a", "u2.f", 1});
  }
  {
    const ProvSink s0(&unit0, 0);
    prov_record(CauseKind::UnionWidening, {"p0", "a", "u0.f", 1});
    prov_record(CauseKind::UnionDrop, {"p0", "b", "u0.f", 2});
  }
  // Appended in the "wrong" order (unit 2 first, unit 0's records reversed);
  // the sort restores (unit, seq).
  std::vector<ProvRecord> records = unit2;
  records.push_back(unit0[1]);
  records.push_back(unit0[0]);
  sort_provenance(records);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].proc, "p0");
  EXPECT_EQ(records[0].seq, 0u);
  EXPECT_EQ(records[1].proc, "p0");
  EXPECT_EQ(records[1].seq, 1u);
  EXPECT_EQ(records[2].proc, "p2");
}

TEST(SortProvenanceTest, PrecisionSectionCountsTheGivenCausesOnly) {
  std::vector<ProvRecord> records;
  {
    const ProvSink sink(&records, 0);
    prov_record(CauseKind::UnionDrop, {"p", "a", "u.f", 1});
    prov_record(CauseKind::UnionDrop, {"p", "b", "u.f", 2});
    prov_record(CauseKind::NonAffineSubscript, {"p", "a", "u.f", 3}, 0);
  }
  EXPECT_NE(render_precision_json(0, records).find(
                "\"causes\": {\"non_affine_subscript\": 1, \"union_drop\": 2}"),
            std::string::npos);
  EXPECT_NE(render_precision_json(0, {}).find("\"causes\": {}"), std::string::npos);
}

TEST(ProvenanceJsonl, HeaderRecordsAndLinkUnit) {
  std::vector<ProvRecord> records;
  {
    const ProvSink sink(&records, 4);
    prov_record(CauseKind::NonAffineSubscript, {"main", "a", "m.c", 12}, 1,
                "subscript 'i*i' has a \"product\" term");
  }
  {
    const ProvSink link(&records, kLinkUnit);
    prov_record(CauseKind::UnresolvedCall, {"", "helper", "m.c", 30}, -1,
                "no linked unit defines this procedure");
  }
  const std::string text = write_provenance_jsonl(records, "demo");
  EXPECT_NE(text.find("\"schema\": \"ara.prov.v1\""), std::string::npos);
  EXPECT_NE(text.find("\"run\": \"demo\""), std::string::npos);
  EXPECT_NE(text.find("\"records\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"non_affine_subscript\""), std::string::npos);
  EXPECT_NE(text.find("\\\"product\\\""), std::string::npos) << "details are JSON-escaped";
  EXPECT_NE(text.find("\"unit\": \"link\""), std::string::npos)
      << "link-phase records render the sentinel unit symbolically:\n"
      << text;
  // Two identical inputs produce identical bytes (no timestamps, no lanes).
  EXPECT_EQ(text, write_provenance_jsonl(records, "demo"));
}

TEST(ProvenanceSerde, SurvivesTheUnitSummaryRoundTrip) {
  serve::UnitSummary unit;
  unit.source_name = "u.f";
  ProvRecord a;
  a.unit = 0;
  a.seq = 0;
  a.kind = CauseKind::UnknownExtent;
  a.proc = "sub";
  a.array = "grid";
  a.dim = 1;
  a.file = "u.f";
  a.line = 4;
  a.detail = "assumed-size extent; spaces and \"quotes\" survive";
  ProvRecord b;
  b.unit = 0;
  b.seq = 1;
  b.kind = CauseKind::LimitDemotion;
  b.detail = "";
  unit.provenance = {a, b};

  const std::string bytes = serve::write_unit_summary(unit);
  const std::optional<serve::UnitSummary> parsed = serve::parse_unit_summary(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->provenance.size(), 2u);
  EXPECT_EQ(parsed->provenance[0], a);
  EXPECT_EQ(parsed->provenance[1], b);
  EXPECT_EQ(serve::write_unit_summary(*parsed), bytes) << "write->parse->write is byte-stable";
}

TEST(ProvenanceSerde, MalformedProvLinesYieldNullopt) {
  serve::UnitSummary unit;
  unit.source_name = "u.f";
  ProvRecord rec;
  rec.kind = CauseKind::UnionWidening;
  rec.detail = "d";
  unit.provenance = {rec};
  const std::string bytes = serve::write_unit_summary(unit);

  const std::size_t pos = bytes.find("union_widening");
  ASSERT_NE(pos, std::string::npos);
  std::string bad = bytes;
  bad.replace(pos, std::string("union_widening").size(), "unknown_causes");
  EXPECT_FALSE(serve::parse_unit_summary(bad).has_value());
}

}  // namespace
}  // namespace ara::obs
