#include "dragon/session.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "driver/compiler.hpp"

namespace ara::dragon {
namespace {

namespace fs = std::filesystem;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "ara_session_test";
    fs::remove_all(dir_);
    cc_.add_source("matrix.c",
                   "int aarr[20];\n"
                   "void main(void) { int i; for (i = 0; i < 8; i++) aarr[i] = i; }\n",
                   Language::C);
    ASSERT_TRUE(cc_.compile()) << cc_.diagnostics().render();
    result_ = cc_.analyze();
  }

  void TearDown() override { fs::remove_all(dir_); }

  driver::Compiler cc_;
  ipa::AnalysisResult result_;
  fs::path dir_;
};

TEST_F(SessionTest, ExportWritesAllThreeFiles) {
  std::string error;
  ASSERT_TRUE(driver::export_dragon_files(cc_.program(), result_, dir_, "matrix", &error))
      << error;
  EXPECT_TRUE(fs::exists(dir_ / "matrix.rgn"));
  EXPECT_TRUE(fs::exists(dir_ / "matrix.dgn"));
  EXPECT_TRUE(fs::exists(dir_ / "matrix.cfg"));
}

TEST_F(SessionTest, LoadRoundTripsTheProject) {
  ASSERT_TRUE(driver::export_dragon_files(cc_.program(), result_, dir_, "matrix", nullptr));
  std::string error;
  const auto session = Session::load(dir_ / "matrix.dgn", &error);
  ASSERT_TRUE(session.has_value()) << error;
  EXPECT_EQ(session->procedure_count(), 1u);
  EXPECT_EQ(session->project().name, "matrix");
  EXPECT_EQ(session->table().rows().size(), result_.rows.size());
  // Procedure pane: '@' then the procedures (the GUI's left column).
  const auto pane = session->procedure_pane();
  ASSERT_EQ(pane.size(), 2u);
  EXPECT_EQ(pane[0], "@");
  EXPECT_EQ(pane[1], "main");
}

TEST_F(SessionTest, CallGraphDotHasAllProcedures) {
  Session session(ipa::dgn_project(cc_.program(), result_.callgraph, "p"), result_.rows);
  const std::string dot = session.callgraph_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"main\""), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // entry marker
}

TEST_F(SessionTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(Session::load(dir_ / "absent.dgn", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST_F(SessionTest, LoadCorruptRgnFails) {
  ASSERT_TRUE(driver::export_dragon_files(cc_.program(), result_, dir_, "matrix", nullptr));
  std::ofstream(dir_ / "matrix.rgn") << "garbage\n";
  std::string error;
  EXPECT_FALSE(Session::load(dir_ / "matrix.dgn", &error).has_value());
}

}  // namespace
}  // namespace ara::dragon
