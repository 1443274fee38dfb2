// In-process tests of the arac CLI (driver/cli.hpp): flag handling, the
// always-render-diagnostics fix, and the telemetry outputs the acceptance
// command `arac --trace out.json --stats <src>` must produce.
#include "driver/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/stats.hpp"
#include "support/json.hpp"

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

std::string workload(const char* name) {
  return (fs::path(ARA_WORKLOADS_DIR) / name).string();
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(AracCli, HelpExitsZero) {
  const CliRun r = arac({"--help"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("usage: arac"), std::string::npos);
}

TEST(AracCli, NoInputIsUsageError) {
  // Usage errors are total failures (exit 1); exit 2 is reserved for
  // partial batch results (see docs/robustness.md).
  const CliRun r = arac({"--stats"});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("no input files"), std::string::npos);
}

TEST(AracCli, UnknownOptionIsUsageError) {
  const CliRun r = arac({"--frobnicate", workload("fig10_matrix.c")});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST(AracCli, MissingFileFails) {
  const CliRun r = arac({"/nonexistent/nope.c"});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("cannot read"), std::string::npos);
}

TEST(AracCli, AnalyzesWorkloadAndPrintsRegionTable) {
  const CliRun r = arac({workload("fig10_matrix.c")});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("region rows"), std::string::npos);
  EXPECT_NE(r.out.find("aarr"), std::string::npos);
  EXPECT_TRUE(r.err.empty()) << r.err;
}

TEST(AracCli, CompileErrorRendersDiagnosticsAndFails) {
  const fs::path dir = fs::temp_directory_path() / "arac_err_test";
  fs::create_directories(dir);
  std::ofstream(dir / "bad.f") << "subroutine s\n  do i = \nend\n";
  const CliRun r = arac({"--export-dir", dir.string(), (dir / "bad.f").string()});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("error"), std::string::npos);
  EXPECT_TRUE(fs::exists(dir / "bad.failures.json")) << r.err;
  fs::remove_all(dir);
}

TEST(AracCli, WarningsSurviveSuccessfulCompiles) {
  // The old smoke binary only rendered diagnostics on failure; a warning on
  // a successful compile (here: unknown extension fallback) must reach
  // stderr while the run still succeeds.
  const fs::path dir = fs::temp_directory_path() / "arac_warn_test";
  fs::create_directories(dir);
  std::ofstream(dir / "prog.ftn") << "subroutine s\n  integer :: i\n  i = 1\nend\n";
  const CliRun r = arac({"--quiet", (dir / "prog.ftn").string()});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.err.find("warning"), std::string::npos);
  EXPECT_NE(r.err.find("unrecognized extension"), std::string::npos);
  fs::remove_all(dir);
}

TEST(AracCli, TraceAndStatsProduceValidTelemetryFiles) {
  // The ISSUE 3 acceptance command, in-process.
  const fs::path dir = fs::temp_directory_path() / "arac_telemetry_test";
  fs::create_directories(dir);
  const fs::path trace = dir / "out.json";
  const CliRun r = arac({"--quiet", "--trace", trace.string(), "--stats", "--export-dir",
                         dir.string(), workload("fig10_matrix.c")});
  ASSERT_EQ(r.rc, 0) << r.err;

  std::string err;
  const auto trace_json = json::parse(slurp(trace), &err);
  ASSERT_TRUE(trace_json.has_value()) << err;
  EXPECT_TRUE(trace_json->is_array());
  EXPECT_GE(trace_json->array.size(), 8u);

  const auto stats_json = json::parse(slurp(dir / "fig10_matrix.stats.json"), &err);
  ASSERT_TRUE(stats_json.has_value()) << err;
  const json::Value* counters = stats_json->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->object.size(), 10u);

  // --stats prints the counter table on stdout.
  EXPECT_NE(r.out.find("frontend.tokens"), std::string::npos);
  fs::remove_all(dir);
}

TEST(AracCli, TimeReportRendersPhaseTree) {
  // Every local run is the batch engine, so the tree shows its phases: the
  // batch, its unit phase with one span per unit, and the link.
  const CliRun r = arac({"--quiet", "--time-report", workload("fig10_matrix.c")});
  ASSERT_EQ(r.rc, 0) << r.err;
  for (const char* phase : {"Phase", "batch", "units", "fig10_matrix.c", "parse", "link",
                            "link-propagate", "link-rows"}) {
    EXPECT_NE(r.out.find(phase), std::string::npos) << phase << ":\n" << r.out;
  }
}

TEST(AracCli, TelemetryFlagRestoresGlobalState) {
  ASSERT_FALSE(obs::enabled());
  (void)arac({"--quiet", "--time-report", workload("fig10_matrix.c")});
  EXPECT_FALSE(obs::enabled());
}

/// Two tiny Fortran units, so the run-ledger flags and --dump-ir see more
/// than one unit.
fs::path write_ledger_units(const char* dirname) {
  const fs::path dir = fs::temp_directory_path() / dirname;
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* name : {"ua", "ub"}) {
    std::ofstream(dir / (std::string(name) + ".f"))
        << "subroutine " << name << "(x)\n"
        << "  integer, dimension(1:100) :: x\n"
        << "  integer :: i\n"
        << "  do i = 1, 100\n"
        << "    x(i) = i\n"
        << "  end do\n"
        << "end subroutine " << name << "\n";
  }
  return dir;
}

TEST(AracCli, MetricsOutWritesHistogramsAndDerivedEventLog) {
  const fs::path dir = write_ledger_units("arac_metrics_test");
  const fs::path metrics = dir / "m.json";
  const CliRun r = arac({"--quiet", "--jobs", "2", "--metrics-out", metrics.string(),
                         (dir / "ua.f").string(), (dir / "ub.f").string()});
  ASSERT_EQ(r.rc, 0) << r.err;

  std::string err;
  const auto doc = json::parse(slurp(metrics), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("schema")->string, "ara.metrics.v1");
  const json::Value* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* parse_hist = hists->find("serve.unit_parse_ns");
  ASSERT_NE(parse_hist, nullptr) << "batch runs must record per-unit parse latency";
  EXPECT_DOUBLE_EQ(parse_hist->find("count")->number, 2.0);
  for (const char* field : {"p50", "p90", "p99"}) {
    EXPECT_NE(parse_hist->find(field), nullptr) << field;
  }

  // With no explicit --events, a batch --metrics-out run derives the event
  // log path next to the metrics file.
  const std::string events = slurp(dir / "m.events.jsonl");
  EXPECT_NE(events.find("\"schema\": \"ara.events.v1\""), std::string::npos) << events;
  EXPECT_NE(events.find("\"events\": 10"), std::string::npos)
      << "5 lifecycle events per unit:\n" << events;
  fs::remove_all(dir);
}

TEST(AracCli, ExplicitEventsPathOverridesTheDerivedOne) {
  const fs::path dir = write_ledger_units("arac_events_test");
  const CliRun r = arac({"--quiet", "--jobs", "2", "--metrics-out", (dir / "m.json").string(),
                         "--events", (dir / "e.jsonl").string(), (dir / "ua.f").string(),
                         (dir / "ub.f").string()});
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_TRUE(fs::exists(dir / "e.jsonl"));
  EXPECT_FALSE(fs::exists(dir / "m.events.jsonl"));
  fs::remove_all(dir);
}

TEST(AracCli, ProfileWritesAFoldedFile) {
  const fs::path dir = write_ledger_units("arac_profile_test");
  const fs::path folded = dir / "p.folded";
  const CliRun r = arac({"--quiet", "--profile", folded.string(), workload("fig10_matrix.c")});
  ASSERT_EQ(r.rc, 0) << r.err;
  ASSERT_TRUE(fs::exists(folded));
  // The weights are measured self times, so only the shape is asserted:
  // every line is "stack weight", and the engine's unit phase is one of the
  // paths. (test_profiler pins the rendering exactly.)
  const std::string text = slurp(folded);
  EXPECT_NE(text.find("\nbatch;units "), std::string::npos) << text;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_LT(space + 1, line.size()) << line;
    for (const char c : line.substr(space + 1)) EXPECT_TRUE(c >= '0' && c <= '9') << line;
  }
  fs::remove_all(dir);
}

TEST(AracCli, MissingFlagValueIsUsageError) {
  EXPECT_EQ(arac({"--profile"}).rc, 1);
  EXPECT_EQ(arac({"--metrics-out"}).rc, 1);
}

TEST(AracCli, ClientModeRefusesFlagsItCannotHonour) {
  // The daemon runs the analysis, so telemetry, IR, loop verdicts and unit
  // limits of this process would silently do nothing: each is a usage
  // error named before any connection is tried.
  const fs::path dir = write_ledger_units("arac_client_refusals_test");
  const std::vector<std::vector<std::string>> refused = {
      {"--trace", (dir / "t.json").string()},
      {"--metrics-out", (dir / "m.json").string()},
      {"--events", (dir / "e.jsonl").string()},
      {"--profile", (dir / "p.folded").string()},
      {"--stats"},
      {"--time-report"},
      {"--dump-ir"},
      {"--loops"},
      {"--max-depth", "1"},
      {"--max-ast-nodes", "1"},
      {"--max-loop-trip", "1"},
      {"--max-arrays", "1"},
      {"--unit-timeout-ms", "1"},
  };
  for (const std::vector<std::string>& flag : refused) {
    std::vector<std::string> args = {"--daemon-connect", (dir / "no.sock").string()};
    args.insert(args.end(), flag.begin(), flag.end());
    args.push_back((dir / "ua.f").string());
    const CliRun r = arac(args);
    EXPECT_EQ(r.rc, 1) << flag[0];
    EXPECT_NE(r.err.find("arac: " + flag[0] + " is unavailable with --daemon-connect"),
              std::string::npos)
        << r.err;
    EXPECT_EQ(r.err.find("cannot connect"), std::string::npos) << r.err;
  }
  for (const char* file : {"t.json", "m.json", "e.jsonl", "p.folded"}) {
    EXPECT_FALSE(fs::exists(dir / file)) << file;
  }
  fs::remove_all(dir);
}

TEST(AracCli, RetryAndDeadlineRequireDaemonConnect) {
  for (const char* flag : {"--retry", "--deadline-ms"}) {
    const CliRun r = arac({flag, "2", workload("fig10_matrix.c")});
    EXPECT_EQ(r.rc, 1) << flag;
    EXPECT_NE(r.err.find(std::string("arac: ") + flag + " requires --daemon-connect"),
              std::string::npos)
        << r.err;
    EXPECT_TRUE(r.out.empty()) << "nothing may run: " << r.out;
  }
}

/// The `"causes": {...}` object of a .stats.json or --metrics-out file.
std::string causes_of(const std::string& text) {
  const std::size_t at = text.find("\"causes\": {");
  if (at == std::string::npos) return "";
  return text.substr(at, text.find('}', at) - at + 1);
}

TEST(AracCli, StatsAndMetricsCountTheRunsOwnCauseRecords) {
  // The precision section's causes count this run's records, loop verdicts
  // included when they were computed: the same records --provenance-out
  // writes, for the .stats.json with and without --export-dir.
  const fs::path dir = fs::temp_directory_path() / "arac_causes_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::vector<std::string> lu;
  for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
    lu.push_back(e.path().string());
  }
  std::sort(lu.begin(), lu.end());
  auto run = [&](std::vector<std::string> args) {
    args.insert(args.end(), lu.begin(), lu.end());
    const CliRun r = arac(args);
    EXPECT_EQ(r.rc, 0) << r.err;
  };
  run({"--quiet", "--name", "lu", "--jobs", "4", "--stats", "--export-dir",
       (dir / "export").string(), "--metrics-out", (dir / "m.json").string(),
       "--provenance-out", (dir / "p.jsonl").string()});

  std::map<std::string, int> kinds;
  std::istringstream prov(slurp(dir / "p.jsonl"));
  std::string line;
  std::getline(prov, line);  // header
  while (std::getline(prov, line)) {
    const std::size_t at = line.find("\"kind\": \"") + 9;
    ++kinds[line.substr(at, line.find('"', at) - at)];
  }
  ASSERT_GT(kinds.count("loop_not_parallel"), 0u);
  std::string want = "\"causes\": {";
  for (const auto& [kind, n] : kinds) {
    want += (want.back() == '{' ? "\"" : ", \"") + kind + "\": " + std::to_string(n);
  }
  want += "}";
  EXPECT_EQ(causes_of(slurp(dir / "export" / "lu.stats.json")), want);
  EXPECT_EQ(causes_of(slurp(dir / "m.json")), want);

  // Without --export-dir, --stats writes NAME.stats.json in the cwd.
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);
  run({"--quiet", "--name", "lu", "--stats", "--provenance-out", (dir / "p2.jsonl").string()});
  fs::current_path(cwd);
  EXPECT_EQ(causes_of(slurp(dir / "lu.stats.json")), want);
  fs::remove_all(dir);
}

TEST(AracCli, DumpIrPrintsEveryUnitAtAnyJobCount) {
  // Each unit's own WHIRL, from the engine's per-unit compile; the bytes do
  // not depend on --jobs.
  const fs::path dir = write_ledger_units("arac_dump_ir_test");
  const std::vector<std::string> units = {(dir / "ua.f").string(), (dir / "ub.f").string()};
  std::string first;
  for (const char* jobs : {"1", "3"}) {
    std::vector<std::string> args = {"--quiet", "--dump-ir", "--jobs", jobs};
    args.insert(args.end(), units.begin(), units.end());
    const CliRun r = arac(args);
    ASSERT_EQ(r.rc, 0) << r.err;
    EXPECT_TRUE(r.err.empty()) << r.err;
    const std::size_t ua = r.out.find("=== ua (ua.f) ===");
    const std::size_t ub = r.out.find("=== ub (ub.f) ===");
    ASSERT_NE(ua, std::string::npos) << r.out;
    ASSERT_NE(ub, std::string::npos) << r.out;
    EXPECT_LT(ua, ub) << "units dump in input order";
    if (first.empty()) first = r.out;
    EXPECT_EQ(r.out, first) << "--jobs " << jobs;
  }
  fs::remove_all(dir);
}

TEST(AracCli, NoIpaSkipsInterproceduralRows) {
  const CliRun with = arac({workload("fig1_add.f")});
  const CliRun without = arac({"--no-ipa", workload("fig1_add.f")});
  ASSERT_EQ(with.rc, 0) << with.err;
  ASSERT_EQ(without.rc, 0) << without.err;
  EXPECT_NE(with.out.find("IUSE"), std::string::npos);
  EXPECT_EQ(without.out.find("IUSE"), std::string::npos);
}

// r writes a(n) and recurses on n - 1, so `call r(b, 100)` writes b(1:100).
// Its summary never converges: each pass reaches one element further.
constexpr const char* kRecursion =
    "subroutine r(a, n)\n"
    "  integer :: n\n"
    "  integer :: a(1:100)\n"
    "  a(n) = 0\n"
    "  if (n .gt. 1) then\n"
    "    call r(a, n - 1)\n"
    "  end if\n"
    "end subroutine r\n"
    "\n"
    "subroutine main\n"
    "  integer :: b(1:100)\n"
    "  call r(b, 100)\n"
    "end subroutine main\n";

// The same walk split over p and q, which call each other. The call-graph
// walk reaches p first, so q closes the cycle and is the node widened; main
// calls p, whose summary is only translated from q's widened one.
constexpr const char* kMutualRecursion =
    "subroutine p(a, n)\n"
    "  integer :: n\n"
    "  integer :: a(1:100)\n"
    "  a(n) = 0\n"
    "  if (n .gt. 1) then\n"
    "    call q(a, n - 1)\n"
    "  end if\n"
    "end subroutine p\n"
    "\n"
    "subroutine q(a, n)\n"
    "  integer :: n\n"
    "  integer :: a(1:100)\n"
    "  a(n) = 1\n"
    "  if (n .gt. 1) then\n"
    "    call p(a, n - 1)\n"
    "  end if\n"
    "end subroutine q\n"
    "\n"
    "subroutine main\n"
    "  integer :: b(1:100)\n"
    "  call p(b, 100)\n"
    "end subroutine main\n";

TEST(AracCli, NonConvergentRecursionIsWidenedWithAndWithoutJobs) {
  const fs::path dir = fs::temp_directory_path() / "ara_arac_recursion";
  struct Kernel {
    const char* source;
    const char* cause;  // the cause --explain b must name at main's call
  };
  for (const Kernel& kernel :
       {Kernel{kRecursion, "rec.f:12: in main: 'b': recursion widened"},
        Kernel{kMutualRecursion, "rec.f:21: in main: 'b': recursion widened"}}) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string src = (dir / "rec.f").string();
    std::ofstream(src) << kernel.source;

    for (const std::vector<std::string>& mode :
         {std::vector<std::string>{}, std::vector<std::string>{"--jobs", "2"}}) {
      const std::string label =
          std::string(kernel.cause) + (mode.empty() ? ", no --jobs" : ", --jobs 2");
      std::vector<std::string> args = {"--quiet", "--export-dir", dir.string(), "--name", "rec"};
      args.insert(args.end(), mode.begin(), mode.end());
      args.push_back(src);
      ASSERT_EQ(arac(args).rc, 0) << label;

      // main's IDEF rows on b must cover every element the call writes.
      std::vector<bool> covered(101, false);
      std::istringstream rgn(slurp(dir / "rec.rgn"));
      std::string line;
      while (std::getline(rgn, line)) {
        if (line.rfind("main,b,", 0) != 0 || line.find(",IDEF,") == std::string::npos) continue;
        // Scope,Array,File,Mode,References,Dims,LB,UB,Stride,...
        std::vector<std::string> cols;
        std::istringstream fields(line);
        for (std::string f; std::getline(fields, f, ',');) cols.push_back(f);
        ASSERT_GE(cols.size(), 9u) << line;
        const long lb = std::stol(cols[6]);
        const long ub = std::stol(cols[7]);
        const long stride = std::abs(std::stol(cols[8]));
        for (long i = lb; i >= 1 && i <= ub && i <= 100; i += stride) covered[i] = true;
      }
      for (int i = 1; i <= 100; ++i) EXPECT_TRUE(covered[i]) << label << ": b(" << i << ")";

      args = {"--quiet", "--explain", "b"};
      args.insert(args.end(), mode.begin(), mode.end());
      args.push_back(src);
      const CliRun explain = arac(args);
      ASSERT_EQ(explain.rc, 0) << label;
      EXPECT_EQ(explain.out.find(" 0 precision-loss cause(s)"), std::string::npos)
          << label << ":\n" << explain.out;
      EXPECT_NE(explain.out.find(kernel.cause), std::string::npos) << label << ":\n"
                                                                    << explain.out;
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ara::driver
