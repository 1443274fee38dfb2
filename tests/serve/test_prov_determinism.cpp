// Provenance determinism through the real CLI entry point: the
// .provenance.jsonl export (ara.prov.v1) must be byte-identical whatever
// the worker count and whatever the cache state — cold, warm, or bypassed
// — because records ride the v3 summary cache and the ledger merges them
// in (unit, seq) order. The loop verdicts, which are computed per unit on
// request and never cached, obey the same contract. Also covers the
// --explain surface on the fig10 workload (the walkthrough in
// docs/observability.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/cli.hpp"

namespace ara::driver {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int rc = 0;
  std::string out;
  std::string err;
};

CliRun arac(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  CliRun r;
  r.rc = run_arac(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> lu_sources() {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
    if (e.path().extension() == ".f") out.push_back(e.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ProvDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "ara_prov_determinism";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// An LU run exporting .provenance.jsonl to `<sub>.jsonl`.
  std::vector<std::string> prov_run(const std::string& sub, std::vector<std::string> extra) {
    std::vector<std::string> args = {"--quiet", "--name", "lu", "--provenance-out",
                                     jsonl(sub).string()};
    args.insert(args.end(), extra.begin(), extra.end());
    for (const std::string& src : lu_sources()) args.push_back(src);
    return args;
  }

  fs::path jsonl(const std::string& sub) const { return dir_ / (sub + ".jsonl"); }

  fs::path dir_;
};

TEST_F(ProvDeterminismTest, JobCountDoesNotChangeProvenanceBytes) {
  ASSERT_EQ(arac(prov_run("j1", {"--jobs", "1"})).rc, 0);
  ASSERT_EQ(arac(prov_run("j8", {"--jobs", "8"})).rc, 0);
  const std::string a = slurp(jsonl("j1"));
  const std::string b = slurp(jsonl("j8"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"ara.prov.v1\""), std::string::npos);
  EXPECT_NE(a.find("\"kind\": "), std::string::npos) << "LU must yield at least one cause";
  EXPECT_NE(a.find("\"kind\": \"loop_not_parallel\""), std::string::npos)
      << "--provenance-out computes the loop verdicts under --jobs too";
}

TEST_F(ProvDeterminismTest, WarmCacheReplaysProvenanceByteIdentically) {
  const std::string cache = (dir_ / "cache").string();
  ASSERT_EQ(arac(prov_run("cold", {"--jobs", "4", "--cache-dir", cache})).rc, 0);
  ASSERT_EQ(arac(prov_run("warm", {"--jobs", "4", "--cache-dir", cache})).rc, 0);
  ASSERT_EQ(arac(prov_run("nocache", {"--jobs", "4"})).rc, 0);
  const std::string cold = slurp(jsonl("cold"));
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold, slurp(jsonl("warm"))) << "warm-cache replay must be byte-identical";
  EXPECT_EQ(cold, slurp(jsonl("nocache"))) << "caching must not change the records";
}

TEST_F(ProvDeterminismTest, ExplainNamesACauseForEveryStayedSerialLoop) {
  const std::string fig10 = (fs::path(ARA_WORKLOADS_DIR) / "fig10_matrix.c").string();
  const CliRun r = arac({"--quiet", "--explain", "--loops", fig10});
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_NE(r.out.find("stayed serial"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("fig10_matrix.c:"), std::string::npos)
      << "each cause cites its source line:\n"
      << r.out;
  EXPECT_NE(r.out.find("DEF at line"), std::string::npos)
      << "the blocking dependence pair is named:\n"
      << r.out;
}

TEST_F(ProvDeterminismTest, LoopVerdictsUnderJobsListEveryStayedSerialLoop) {
  // --jobs no longer refuses --loops: LU's 18 serial loops are listed, and
  // the region causes still render after them.
  std::vector<std::string> args = {"--quiet", "--explain", "--loops", "--jobs", "2"};
  for (const std::string& src : lu_sources()) args.push_back(src);
  const CliRun r = arac(args);
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_TRUE(r.err.empty()) << r.err;
  EXPECT_EQ(r.out.rfind("explain: 18 loop(s) stayed serial:\n", 0), 0u) << r.out;
  EXPECT_NE(r.out.find("precision-loss cause"), std::string::npos) << r.out;
}

TEST_F(ProvDeterminismTest, CoindexedAccessesGetLoopVerdicts) {
  // A remote coarray access is a Coindex node over the Array; the verdict
  // walk looks through it (it used to fail with "bad StIdx"). halo_step's
  // time loop writes u twice over; gather_edges' loop is parallel.
  const std::string caf = (fs::path(ARA_WORKLOADS_DIR) / "caf_halo.f").string();
  const CliRun r = arac({"--quiet", "--explain", "--loops", caf});
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_EQ(r.out.rfind("explain: 1 loop(s) stayed serial:\n"
                        "  caf_halo.f:19: in halo_step: 'u': loop not parallelizable",
                        0),
            0u)
      << r.out;
}

}  // namespace
}  // namespace ara::driver
