// Resource-guard tests (satellite of the robustness ISSUE): hostile units —
// deep recursion, giant constant loop bounds, absurd array counts — must
// degrade into a clean, classified UnitFailure under the serve engine's
// barrier, and into a diagnosed exit-1 failure under plain arac. Never a
// stack overflow, an OOM kill, or a wedged worker.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/cli.hpp"
#include "serve/engine.hpp"
#include "support/limits.hpp"

namespace ara {
namespace {

namespace fs = std::filesystem;

std::string deep_paren_program(int depth) {
  std::string s = "subroutine deep\n  integer :: x\n  x = ";
  s += std::string(static_cast<std::size_t>(depth), '(');
  s += '1';
  s += std::string(static_cast<std::size_t>(depth), ')');
  s += "\nend subroutine deep\n";
  return s;
}

std::string giant_loop_program() {
  return "subroutine trip(a)\n"
         "  integer, dimension(1:10) :: a\n"
         "  integer :: i\n"
         "  do i = 1, 2000000000\n"
         "    a(1) = i\n"
         "  end do\n"
         "end subroutine trip\n";
}

std::string many_arrays_program(int count) {
  std::string s = "subroutine many\n";
  for (int i = 0; i < count; ++i) {
    s += "  integer, dimension(1:2) :: z" + std::to_string(i) + "\n";
  }
  s += "end subroutine many\n";
  return s;
}

/// Runs one source through the batch engine alongside a healthy unit, and
/// expects the hostile unit to fail with `kind` while the healthy one
/// survives into a partial link.
serve::UnitFailure expect_unit_failure(const std::string& source,
                                       serve::FailureKind kind,
                                       const serve::BatchOptions& opts) {
  const std::vector<serve::SourceBuffer> sources = {
      {"hostile.f", source, Language::Fortran},
      {"healthy.f",
       "subroutine ok(a)\n  integer, dimension(1:8) :: a\n  integer :: i\n"
       "  do i = 1, 8\n    a(i) = i\n  end do\nend subroutine ok\n",
       Language::Fortran}};
  const serve::BatchResult r = serve::run_batch(sources, opts, "guards");
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.partial) << "healthy unit must survive into a degraded link";
  EXPECT_EQ(r.failed_units, 1u);
  EXPECT_EQ(r.units[0].status, serve::UnitStatus::Failed);
  EXPECT_EQ(r.units[1].status, serve::UnitStatus::Analyzed);
  EXPECT_TRUE(r.units[0].failure.has_value());
  serve::UnitFailure failure = r.units[0].failure.value_or(serve::UnitFailure{});
  EXPECT_EQ(failure.kind, kind) << failure.reason;
  EXPECT_FALSE(failure.reason.empty());
  return failure;
}

TEST(ResourceGuards, DeepExpressionNestingIsACleanResourceFailure) {
  serve::BatchOptions opts;
  const serve::UnitFailure f =
      expect_unit_failure(deep_paren_program(5000), serve::FailureKind::Resource, opts);
  EXPECT_NE(f.reason.find("nesting"), std::string::npos) << f.reason;
}

TEST(ResourceGuards, GiantConstantTripCountIsACleanResourceFailure) {
  serve::BatchOptions opts;
  const serve::UnitFailure f =
      expect_unit_failure(giant_loop_program(), serve::FailureKind::Resource, opts);
  EXPECT_NE(f.reason.find("trip"), std::string::npos) << f.reason;
}

TEST(ResourceGuards, ArrayCountAboveCapIsACleanResourceFailure) {
  serve::BatchOptions opts;
  opts.limits.max_arrays = 100;  // keep the test source small
  const serve::UnitFailure f =
      expect_unit_failure(many_arrays_program(150), serve::FailureKind::Resource, opts);
  EXPECT_NE(f.reason.find("arrays"), std::string::npos) << f.reason;
}

TEST(ResourceGuards, AstNodeBudgetIsACleanResourceFailure) {
  serve::BatchOptions opts;
  opts.limits.max_ast_nodes = 50;
  expect_unit_failure(giant_loop_program(), serve::FailureKind::Resource, opts);
}

TEST(ResourceGuards, WatchdogDemotesASlowUnitToTimeout) {
  // A 4000-array unit takes well over a millisecond to compile; with a 1 ms
  // watchdog the deadline checkpoints in the token cursor must fire.
  serve::BatchOptions opts;
  opts.limits.unit_timeout = std::chrono::milliseconds(1);
  const std::vector<serve::SourceBuffer> sources = {
      {"slow.f", many_arrays_program(4000), Language::Fortran}};
  const serve::BatchResult r = serve::run_batch(sources, opts, "watchdog");
  ASSERT_EQ(r.units[0].status, serve::UnitStatus::Failed);
  ASSERT_TRUE(r.units[0].failure.has_value());
  EXPECT_EQ(r.units[0].failure->kind, serve::FailureKind::Timeout)
      << r.units[0].failure->reason;
}

TEST(ResourceGuards, LimitsAreConfigurablePerBatch) {
  // The same program passes under the default caps and fails under a tiny
  // nesting cap — proving BatchOptions::limits reaches the parser.
  const std::string program = deep_paren_program(50);
  serve::BatchOptions loose;
  const std::vector<serve::SourceBuffer> sources = {{"p.f", program, Language::Fortran}};
  EXPECT_TRUE(serve::run_batch(sources, loose, "loose").ok);

  serve::BatchOptions tight;
  tight.limits.max_nesting_depth = 10;
  const serve::BatchResult r = serve::run_batch(sources, tight, "tight");
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.units[0].failure.has_value());
  EXPECT_EQ(r.units[0].failure->kind, serve::FailureKind::Resource);
}

/// Plain arac (no --jobs) on the same hostile inputs: the engine demotes
/// the only unit to a resource failure, so the run exits 1 with a per-unit
/// `failed (resource)` line and NAME.failures.json.
class PlainAracGuards : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "ara_guard_cli";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path write(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream(p) << text;
    return p;
  }

  fs::path dir_;
};

TEST_F(PlainAracGuards, DeepNestingExitsOneWithResourceDiagnostic) {
  const fs::path src = write("deep.f", deep_paren_program(5000));
  std::ostringstream out, err;
  const int rc = driver::run_arac({"--quiet", "--export-dir", dir_.string(), src.string()},
                                  out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("arac: unit 'deep.f' failed (resource): "), std::string::npos)
      << err.str();
  EXPECT_TRUE(fs::exists(dir_ / "deep.failures.json")) << err.str();
}

TEST_F(PlainAracGuards, GiantLoopExitsOneWithResourceDiagnostic) {
  const fs::path src = write("trip.f", giant_loop_program());
  std::ostringstream out, err;
  const int rc = driver::run_arac({"--quiet", "--export-dir", dir_.string(), src.string()},
                                  out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("arac: unit 'trip.f' failed (resource): "), std::string::npos)
      << err.str();
  EXPECT_TRUE(fs::exists(dir_ / "trip.failures.json")) << err.str();
}

TEST_F(PlainAracGuards, LimitFlagsReachTheUnitsWithoutJobs) {
  const fs::path src = write("small.f", deep_paren_program(50));
  std::ostringstream out1, err1;
  EXPECT_EQ(driver::run_arac({"--quiet", src.string()}, out1, err1), 0) << err1.str();
  std::ostringstream out2, err2;
  EXPECT_EQ(driver::run_arac({"--quiet", "--export-dir", dir_.string(), "--max-depth", "10",
                              src.string()},
                             out2, err2),
            1);
  EXPECT_NE(err2.str().find("arac: unit 'small.f' failed (resource): "), std::string::npos)
      << err2.str();
}

}  // namespace
}  // namespace ara
