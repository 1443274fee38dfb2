// Unit tests for the provenance ledger (obs/provenance.hpp): cause-kind
// serde tags, the thread-local sink and ambient-attribution scopes, the
// deterministic (unit, seq) merge order of the process-global ledger, the
// ara.prov.v1 JSONL writer, and the round trip through the v3 unit-summary
// serialization (the cache payload that replays provenance on warm runs).
#include "obs/provenance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "difftest/generator.hpp"
#include "serve/engine.hpp"
#include "serve/summary.hpp"
#include "support/json.hpp"

namespace ara::obs {
namespace {

namespace fs = std::filesystem;

/// Reference: the stream writer write_provenance_jsonl must reproduce byte
/// for byte.
std::string reference_jsonl(const std::vector<ProvRecord>& records, std::string_view run_name) {
  std::ostringstream os;
  os << "{\"schema\": \"ara.prov.v1\", \"run\": \"" << json::escape(run_name)
     << "\", \"records\": " << records.size() << "}\n";
  for (const ProvRecord& r : records) {
    if (r.unit == kLinkUnit) {
      os << "{\"unit\": \"link\"";
    } else {
      os << "{\"unit\": " << r.unit;
    }
    os << ", \"seq\": " << r.seq << ", \"kind\": \"" << to_string(r.kind) << "\"";
    if (!r.proc.empty()) os << ", \"proc\": \"" << json::escape(r.proc) << "\"";
    if (!r.array.empty()) os << ", \"array\": \"" << json::escape(r.array) << "\"";
    if (r.dim >= 0) os << ", \"dim\": " << r.dim;
    if (!r.file.empty()) os << ", \"file\": \"" << json::escape(r.file) << "\"";
    if (r.line != 0) os << ", \"line\": " << r.line;
    if (!r.detail.empty()) os << ", \"detail\": \"" << json::escape(r.detail) << "\"";
    os << "}\n";
  }
  return os.str();
}

/// A batch run's records in export order, as arac renders them.
std::vector<ProvRecord> batch_records(const std::vector<serve::SourceBuffer>& sources,
                                      const std::string& what) {
  serve::BatchResult result = serve::run_batch(sources, serve::BatchOptions{}, what);
  EXPECT_TRUE(result.ok || result.partial) << what;
  sort_provenance(result.provenance);
  return std::move(result.provenance);
}

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

TEST(ProvenanceJsonl, MatchesTheReferenceOnHandBuiltRecords) {
  const std::vector<std::string> values = {"",
                                           "plain",
                                           "say \"hi\"",
                                           "back\\slash",
                                           "tab\tnew\nline\rcr",
                                           "\x01\x02\x1f",
                                           std::string("nul\0inside", 10),
                                           "\xc3\xa9t\xc3\xa9 \xe2\x82\xac",
                                           "/slash/",
                                           "\x7f del",
                                           "\"\\\"\\",
                                           "\xff\xfe raw"};
  std::vector<ProvRecord> records;
  for (std::size_t i = 0; i < values.size() * 2; ++i) {
    ProvRecord r;
    r.unit = i % 3 == 2 ? kLinkUnit : static_cast<std::uint32_t>(i);
    r.seq = static_cast<std::uint32_t>(i * 7);
    r.kind = static_cast<CauseKind>(i % 14);
    r.proc = values[i % values.size()];
    r.array = values[(i + 1) % values.size()];
    r.dim = static_cast<std::int32_t>(i % 4) - 1;
    r.file = values[(i + 2) % values.size()];
    r.line = i % 5 == 0 ? 0 : static_cast<std::uint32_t>(i * 1000);
    r.detail = values[(i + 3) % values.size()];
    records.push_back(r);
    EXPECT_EQ(write_provenance_jsonl({r}, "one"), reference_jsonl({r}, "one")) << "record " << i;
  }
  EXPECT_EQ(write_provenance_jsonl(records, "run \"q\" \\ \x01"),
            reference_jsonl(records, "run \"q\" \\ \x01"));
  EXPECT_EQ(write_provenance_jsonl({}, ""), reference_jsonl({}, ""));
  ProvRecord bare;
  bare.unit = kLinkUnit;
  EXPECT_EQ(write_provenance_jsonl({bare}, "bare"), reference_jsonl({bare}, "bare"));
}

TEST(ProvenanceJsonl, MatchesTheReferenceOnEveryWorkload) {
  for (const char* name : {"lu", "heat", "fig1_add.f", "fig10_matrix.c", "caf_halo.f"}) {
    const fs::path path = fs::path(ARA_WORKLOADS_DIR) / name;
    std::vector<fs::path> files;
    if (fs::is_directory(path)) {
      for (const auto& e : fs::directory_iterator(path)) files.push_back(e.path());
    } else {
      files.push_back(path);
    }
    std::sort(files.begin(), files.end());
    std::vector<serve::SourceBuffer> sources;
    for (const fs::path& f : files) {
      std::optional<serve::SourceBuffer> src = serve::read_source(f, nullptr);
      ASSERT_TRUE(src.has_value()) << f;
      sources.push_back(std::move(*src));
    }
    const std::vector<ProvRecord> records = batch_records(sources, name);
    EXPECT_EQ(write_provenance_jsonl(records, name), reference_jsonl(records, name)) << name;
  }
}

TEST(ProvenanceJsonl, MatchesTheReferenceOnGeneratedPrograms) {
  // 25 seeds x {C, Fortran} x {default, stress-FM grid} = 100 programs.
  std::size_t with_records = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const Language lang : {Language::C, Language::Fortran}) {
      for (const bool stress_fm : {false, true}) {
        difftest::GenOptions gopts;
        gopts.seed = seed;
        gopts.lang = lang;
        if (stress_fm) {  // arafuzz --stress-fm
          gopts.max_loop_depth = 5;
          gopts.max_loop_vars = 6;
          gopts.coupled_pct = 60;
          gopts.stmts = 6;
        }
        const difftest::GeneratedProgram prog = difftest::generate(gopts);
        const std::string what = prog.filename + " seed " + std::to_string(seed);
        const std::vector<ProvRecord> records =
            batch_records({{prog.filename, prog.source, prog.lang}}, what);
        if (!records.empty()) ++with_records;
        EXPECT_EQ(write_provenance_jsonl(records, what), reference_jsonl(records, what)) << what;
      }
    }
  }
  EXPECT_GT(with_records, 50u) << "the corpus must exercise the record lines";
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
