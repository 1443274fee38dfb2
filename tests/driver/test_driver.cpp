#include "driver/compiler.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace ara::driver {
namespace {

namespace fs = std::filesystem;

TEST(Driver, AddFileSelectsLanguageByExtension) {
  const fs::path dir = fs::temp_directory_path() / "ara_driver_test";
  fs::create_directories(dir);
  std::ofstream(dir / "x.c") << "int g[4];\nvoid main(void) { g[0] = 1; }\n";
  std::ofstream(dir / "y.f") << "subroutine s\n  integer :: i\n  i = 1\nend\n";

  Compiler cc;
  ASSERT_TRUE(cc.add_file(dir / "x.c"));
  ASSERT_TRUE(cc.add_file(dir / "y.f"));
  EXPECT_EQ(cc.program().sources.language(1), Language::C);
  EXPECT_EQ(cc.program().sources.language(2), Language::Fortran);
  EXPECT_TRUE(cc.compile()) << cc.diagnostics().render();
  fs::remove_all(dir);
}

TEST(Driver, AddFileRecognizesFortranFreeFormExtensions) {
  const fs::path dir = fs::temp_directory_path() / "ara_driver_f90_test";
  fs::create_directories(dir);
  const char* src = "subroutine s\n  integer :: i\n  i = 1\nend\n";
  std::ofstream(dir / "a.f90") << src;
  std::ofstream(dir / "b.for") << src;
  std::ofstream(dir / "c.F") << src;  // case-insensitive

  Compiler cc;
  ASSERT_TRUE(cc.add_file(dir / "a.f90"));
  ASSERT_TRUE(cc.add_file(dir / "b.for"));
  ASSERT_TRUE(cc.add_file(dir / "c.F"));
  EXPECT_EQ(cc.program().sources.language(1), Language::Fortran);
  EXPECT_EQ(cc.program().sources.language(2), Language::Fortran);
  EXPECT_EQ(cc.program().sources.language(3), Language::Fortran);
  // Recognized extensions produce no fallback warning.
  EXPECT_EQ(cc.diagnostics().render().find("unrecognized extension"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Driver, AddFileWarnsOnUnknownExtensionFallback) {
  const fs::path dir = fs::temp_directory_path() / "ara_driver_ext_test";
  fs::create_directories(dir);
  std::ofstream(dir / "prog.ftn") << "subroutine s\n  integer :: i\n  i = 1\nend\n";

  Compiler cc;
  ASSERT_TRUE(cc.add_file(dir / "prog.ftn"));
  EXPECT_EQ(cc.program().sources.language(1), Language::Fortran);
  const std::string rendered = cc.diagnostics().render();
  EXPECT_NE(rendered.find("warning"), std::string::npos);
  EXPECT_NE(rendered.find("unrecognized extension"), std::string::npos);
  EXPECT_NE(rendered.find(".ftn"), std::string::npos);
  EXPECT_FALSE(cc.diagnostics().has_errors());
  EXPECT_TRUE(cc.compile()) << rendered;
  fs::remove_all(dir);
}

TEST(Driver, AddFileFailsOnMissingPath) {
  Compiler cc;
  EXPECT_FALSE(cc.add_file("/nonexistent/nope.f"));
}

TEST(Driver, CompileReportsParseErrors) {
  Compiler cc;
  cc.add_source("bad.f", "subroutine s\n  do i = \nend\n", Language::Fortran);
  EXPECT_FALSE(cc.compile());
  EXPECT_TRUE(cc.diagnostics().has_errors());
  EXPECT_NE(cc.diagnostics().render().find("bad.f"), std::string::npos);
}

TEST(Driver, LayoutOptionsAreApplied) {
  CompilerOptions opts;
  opts.layout.global_base = 0x55590000;
  Compiler cc(opts);
  cc.add_source("t.c", "int g[4];\nvoid main(void) { g[0] = 1; }\n", Language::C);
  ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
  bool found = false;
  for (ir::StIdx idx : cc.program().symtab.all_sts()) {
    const ir::St& st = cc.program().symtab.st(idx);
    if (st.name == "g") {
      EXPECT_EQ(st.addr, 0x55590000u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Driver, ExportFailsGracefullyOnBadDirectory) {
  Compiler cc;
  cc.add_source("t.c", "int g[4];\nvoid main(void) { g[0] = 1; }\n", Language::C);
  ASSERT_TRUE(cc.compile());
  const auto result = cc.analyze();
  std::string error;
  EXPECT_FALSE(export_dragon_files(cc.program(), result, "/proc/definitely/not/writable",
                                   "p", &error));
  EXPECT_FALSE(error.empty());
}

TEST(Driver, DgnProjectNamesEntryProcedures) {
  Compiler cc;
  cc.add_source("t.f",
                "program main\n  call s\nend program main\n"
                "subroutine s\nend subroutine s\n",
                Language::Fortran);
  ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
  const auto result = cc.analyze();
  const rgn::DgnProject project = ipa::dgn_project(cc.program(), result.callgraph, "p");
  const rgn::DgnProc* main_proc = project.find_proc("main");
  const rgn::DgnProc* s_proc = project.find_proc("s");
  ASSERT_NE(main_proc, nullptr);
  ASSERT_NE(s_proc, nullptr);
  EXPECT_TRUE(main_proc->is_entry);
  EXPECT_FALSE(s_proc->is_entry);
  ASSERT_EQ(project.edges.size(), 1u);
  EXPECT_EQ(project.edges[0].caller, "main");
  EXPECT_EQ(project.edges[0].callee, "s");
}

}  // namespace
}  // namespace ara::driver
