// NAS-LU integration tests: the paper's §V-B case studies checked end to end
// on the bundled workload — the Fig 11 call graph (24 procedures), Table II
// (XCR in verify), the CLASS row of Fig 12, Table III (global U in rhs) and
// the Fig 13 / Fig 14 advisor outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "dragon/advisor.hpp"
#include "dragon/table.hpp"
#include "driver/compiler.hpp"
#include "support/string_utils.hpp"

namespace ara {
namespace {

namespace fs = std::filesystem;

class LuTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cc_ = new driver::Compiler();
    std::vector<fs::path> files;
    for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
      if (e.path().extension() == ".f") files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& f : files) ASSERT_TRUE(cc_->add_file(f)) << f;
    ASSERT_TRUE(cc_->compile()) << cc_->diagnostics().render();
    result_ = new ipa::AnalysisResult(cc_->analyze());
  }

  static void TearDownTestSuite() {
    delete result_;
    delete cc_;
    result_ = nullptr;
    cc_ = nullptr;
  }

  static std::vector<const rgn::RegionRow*> rows(const std::string& scope,
                                                 const std::string& array,
                                                 const std::string& mode) {
    std::vector<const rgn::RegionRow*> out;
    for (const rgn::RegionRow& row : result_->rows) {
      if (iequals(row.scope, scope) && iequals(row.array, array) && row.mode == mode) {
        out.push_back(&row);
      }
    }
    return out;
  }

  static driver::Compiler* cc_;
  static ipa::AnalysisResult* result_;
};

driver::Compiler* LuTest::cc_ = nullptr;
ipa::AnalysisResult* LuTest::result_ = nullptr;

TEST_F(LuTest, Fig11TwentyFourProcedures) {
  // "the LU benchmark has 24 procedures" — shown at the bottom of Fig 11.
  EXPECT_EQ(result_->callgraph.size(), 24u);
  // The driver program is the unique call-graph root.
  std::size_t roots = 0;
  for (const auto& node : result_->callgraph.nodes()) roots += node.is_root ? 1 : 0;
  EXPECT_EQ(roots, 1u);
}

TEST_F(LuTest, Fig11CallGraphEdges) {
  // Spot-check the caller/callee structure of the NPB serial LU.
  const auto& cg = result_->callgraph;
  auto has_edge = [&](const char* caller, const char* callee) {
    const auto c = cg.find(caller, cc_->program());
    const auto e = cg.find(callee, cc_->program());
    if (!c || !e) return false;
    for (const auto& cs : cg.node(*c).callsites) {
      if (cs.callee == *e) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_edge("applu", "ssor"));
  EXPECT_TRUE(has_edge("applu", "verify"));
  EXPECT_TRUE(has_edge("ssor", "rhs"));
  EXPECT_TRUE(has_edge("ssor", "jacld"));
  EXPECT_TRUE(has_edge("ssor", "blts"));
  EXPECT_TRUE(has_edge("ssor", "jacu"));
  EXPECT_TRUE(has_edge("ssor", "buts"));
  EXPECT_TRUE(has_edge("ssor", "l2norm"));
  EXPECT_TRUE(has_edge("setbv", "exact"));
  EXPECT_TRUE(has_edge("error", "exact"));
  EXPECT_FALSE(has_edge("rhs", "ssor"));
}

TEST_F(LuTest, TableIIXcrRows) {
  // XCR: 1-D double formal of verify, bounds 1:5, 40 bytes; USE refs 4 with
  // density 10; FORMAL refs 1 with density 2 (Table II).
  const auto uses = rows("verify", "xcr", "USE");
  ASSERT_EQ(uses.size(), 4u);
  for (const auto* r : uses) {
    EXPECT_EQ(r->references, 4u);
    EXPECT_EQ(r->dims, 1u);
    EXPECT_EQ(r->lb, "1");
    EXPECT_EQ(r->ub, "5");
    EXPECT_EQ(r->stride, "1");
    EXPECT_EQ(r->element_size, 8);
    EXPECT_EQ(r->data_type, "double");
    EXPECT_EQ(r->dim_size, "5");
    EXPECT_EQ(r->tot_size, 5);
    EXPECT_EQ(r->size_bytes, 40);
    EXPECT_EQ(r->acc_density, 10);
    EXPECT_EQ(r->file, "verify.o");
  }
  const auto formals = rows("verify", "xcr", "FORMAL");
  ASSERT_EQ(formals.size(), 1u);
  EXPECT_EQ(formals[0]->references, 1u);
  EXPECT_EQ(formals[0]->acc_density, 2);
  // The FORMAL's Mem_Loc resolves to the actual's address and matches the
  // USE rows' (same storage), as in Fig 12's b79edfa0 column.
  EXPECT_EQ(formals[0]->mem_loc, uses[0]->mem_loc);
  EXPECT_NE(formals[0]->mem_loc, "0");
}

TEST_F(LuTest, XceSharesShapeButNotStorageWithXcr) {
  const auto xcr = rows("verify", "xcr", "USE");
  const auto xce = rows("verify", "xce", "USE");
  ASSERT_EQ(xce.size(), 4u);
  EXPECT_EQ(xce[0]->size_bytes, 40);
  EXPECT_NE(xce[0]->mem_loc, xcr[0]->mem_loc);  // b79ef7e0 vs b79edfa0
}

TEST_F(LuTest, Fig12ClassRow) {
  // CLASS: char formal, DEF 9 references, 1 byte -> density 900.
  const auto defs = rows("verify", "class", "DEF");
  ASSERT_EQ(defs.size(), 9u);
  EXPECT_EQ(defs[0]->references, 9u);
  EXPECT_EQ(defs[0]->element_size, 1);
  EXPECT_EQ(defs[0]->data_type, "char");
  EXPECT_EQ(defs[0]->size_bytes, 1);
  EXPECT_EQ(defs[0]->acc_density, 900);
}

TEST_F(LuTest, TableIIIGlobalURows) {
  // U: global 4-D double, dims 64|65|65|5 (row-major display), 1,352,000
  // elements, 10,816,000 bytes, 110 USE references in rhs.o, density 0.
  const auto uses = rows("@", "u", "USE");
  std::vector<const rgn::RegionRow*> in_rhs;
  for (const auto* r : uses) {
    if (r->file == "rhs.o") in_rhs.push_back(r);
  }
  ASSERT_EQ(in_rhs.size(), 110u);
  for (const auto* r : in_rhs) {
    EXPECT_EQ(r->references, 110u);
    EXPECT_EQ(r->dims, 4u);
    EXPECT_EQ(r->element_size, 8);
    EXPECT_EQ(r->data_type, "double");
    EXPECT_EQ(r->dim_size, "64|65|65|5");
    EXPECT_EQ(r->tot_size, 1352000);
    EXPECT_EQ(r->size_bytes, 10816000);
    EXPECT_EQ(r->acc_density, 0);
  }
}

TEST_F(LuTest, Fig14RegionRowExists) {
  // One row must carry the probe region (1:3, 1:5, 1:10, 1:4).
  const auto uses = rows("@", "u", "USE");
  bool found = false;
  for (const auto* r : uses) {
    found |= r->lb == "1|1|1|1" && r->ub == "3|5|10|4" && r->stride == "1|1|1|1";
  }
  EXPECT_TRUE(found);
}

TEST_F(LuTest, UIsAHotspotByReferenceCount) {
  dragon::ArrayTable table(result_->rows);
  // "It has been used 110 times, which makes it a hotspot in our code."
  std::uint64_t max_refs = 0;
  std::string max_array;
  for (const rgn::RegionRow& row : result_->rows) {
    if (row.scope == "@" && row.mode == "USE" && row.references > max_refs) {
      max_refs = row.references;
      max_array = row.array;
    }
  }
  EXPECT_EQ(max_array, "u");
  EXPECT_EQ(max_refs, 110u);
}

TEST_F(LuTest, Fig13FusionAdviceOnVerify) {
  const auto advice = dragon::advise_fusion(cc_->program(), *result_);
  const dragon::FusionAdvice* verify_advice = nullptr;
  for (const auto& a : advice) {
    if (a.proc == "verify") verify_advice = &a;
  }
  ASSERT_NE(verify_advice, nullptr);
  EXPECT_NE(std::find(verify_advice->shared_arrays.begin(), verify_advice->shared_arrays.end(),
                      std::string("xcr")),
            verify_advice->shared_arrays.end());
  EXPECT_NE(verify_advice->message.find("!$omp parallel do"), std::string::npos);
}

TEST_F(LuTest, Fig14OffloadAdviceOnRhs) {
  const auto advice = dragon::advise_offload(cc_->program(), *result_);
  const dragon::OffloadAdvice* rhs_advice = nullptr;
  for (const auto& a : advice) {
    if (a.proc == "rhs" && a.directive.find("u(1:3,1:5,1:10,1:4)") != std::string::npos) {
      rhs_advice = &a;
    }
  }
  ASSERT_NE(rhs_advice, nullptr);
  EXPECT_EQ(rhs_advice->directive, "!$acc region copyin(u(1:3,1:5,1:10,1:4))");
  EXPECT_EQ(rhs_advice->full_bytes, 10816000);
  EXPECT_GT(rhs_advice->est_speedup, 10.0);  // "a huge speedup"
}

TEST_F(LuTest, BltsFormalResolvesToRsd) {
  // ssor passes rsd to blts's formal v: Mem_Loc must match rsd's address.
  const auto v_formal = rows("blts", "v", "FORMAL");
  ASSERT_EQ(v_formal.size(), 1u);
  const auto rsd = rows("@", "rsd", "DEF");
  ASSERT_FALSE(rsd.empty());
  EXPECT_EQ(v_formal[0]->mem_loc, rsd[0]->mem_loc);
}

TEST_F(LuTest, NegativeStrideSweepInButs) {
  // buts runs j = ny-1 .. 2 with stride -1; its v accesses must carry
  // symbolic descending bounds (the earlier Dragon lost these).
  const auto uses = rows("buts", "v", "USE");
  ASSERT_FALSE(uses.empty());
  bool descending = false;
  for (const auto* r : uses) {
    descending |= r->stride.find("-1") != std::string::npos;
  }
  EXPECT_TRUE(descending);
}

TEST_F(LuTest, DgnProjectRoundTrip) {
  const rgn::DgnProject project = ipa::dgn_project(cc_->program(), result_->callgraph, "lu");
  EXPECT_EQ(project.procedures.size(), 24u);
  EXPECT_GE(project.edges.size(), 20u);
  rgn::DgnProject back;
  std::string error;
  ASSERT_TRUE(rgn::parse_dgn(rgn::write_dgn(project), back, &error)) << error;
  EXPECT_EQ(back, project);
}

}  // namespace
}  // namespace ara
