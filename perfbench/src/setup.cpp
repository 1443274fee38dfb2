#include "setup.hpp"

#include <cstdio>

#include "difftest/oracle.hpp"
#include "driver/compiler.hpp"
#include "support/string_utils.hpp"

namespace perfbench {

namespace {

using ara::rgn::RegionRow;

/// LU's rows against the paper's Table II (XCR in verify) and Table III
/// (global U in rhs) — the values bench_table2_xcr / bench_table3_u report.
void check_lu_tables(const std::vector<RegionRow>& rows, Tally& tally) {
  const RegionRow* xcr_use = nullptr;
  const RegionRow* xcr_formal = nullptr;
  const RegionRow* class_def = nullptr;
  const RegionRow* xce_use = nullptr;
  for (const RegionRow& r : rows) {
    if (!ara::iequals(r.scope, "verify")) continue;
    if (ara::iequals(r.array, "xcr") && r.mode == "USE") xcr_use = &r;
    if (ara::iequals(r.array, "xcr") && r.mode == "FORMAL") xcr_formal = &r;
    if (ara::iequals(r.array, "class") && r.mode == "DEF" && class_def == nullptr) class_def = &r;
    if (ara::iequals(r.array, "xce") && r.mode == "USE" && xce_use == nullptr) xce_use = &r;
  }
  const auto expect = [&](const std::string& what, const std::string& paper,
                          const std::string& got) {
    tally.check(paper == got, "LU " + what + ": paper " + paper + ", measured " + got);
  };
  if (xcr_use == nullptr || xcr_formal == nullptr || class_def == nullptr || xce_use == nullptr) {
    tally.fail("LU Table II rows for XCR/XCE/CLASS in verify are missing");
  } else {
    expect("XCR USE references", "4", std::to_string(xcr_use->references));
    expect("XCR USE region", "1:5:1", xcr_use->lb + ":" + xcr_use->ub + ":" + xcr_use->stride);
    expect("XCR element", "8 double",
           std::to_string(xcr_use->element_size) + " " + xcr_use->data_type);
    expect("XCR dim/tot/bytes", "5/5/40",
           xcr_use->dim_size + "/" + std::to_string(xcr_use->tot_size) + "/" +
               std::to_string(xcr_use->size_bytes));
    expect("XCR USE density", "10", std::to_string(xcr_use->acc_density));
    expect("XCR FORMAL references", "1", std::to_string(xcr_formal->references));
    expect("XCR FORMAL density", "2", std::to_string(xcr_formal->acc_density));
    expect("XCR FORMAL Mem_Loc == USE Mem_Loc", "yes",
           xcr_formal->mem_loc == xcr_use->mem_loc ? "yes" : "no");
    expect("XCE Mem_Loc distinct from XCR", "yes",
           xce_use->mem_loc != xcr_use->mem_loc ? "yes" : "no");
    expect("CLASS DEF references", "9", std::to_string(class_def->references));
    expect("CLASS density", "900", std::to_string(class_def->acc_density));
    expect("XCR file", "verify.o", xcr_use->file);
  }

  std::size_t u_rows = 0;
  const RegionRow* u = nullptr;
  bool fig14 = false;
  std::uint64_t max_refs = 0;
  std::string hotspot;
  for (const RegionRow& r : rows) {
    if (r.scope != "@" || r.mode != "USE") continue;
    if (r.references > max_refs) {
      max_refs = r.references;
      hotspot = ara::to_lower(r.array);
    }
    if (!ara::iequals(r.array, "u") || r.file != "rhs.o") continue;
    ++u_rows;
    u = &r;
    fig14 |= r.lb == "1|1|1|1" && r.ub == "3|5|10|4";
  }
  if (u == nullptr) {
    tally.fail("LU Table III rows for U in rhs are missing");
    return;
  }
  expect("U USE references in rhs.o", "110", std::to_string(u_rows));
  expect("U dims", "4", std::to_string(u->dims));
  expect("U dim sizes", "64|65|65|5", u->dim_size);
  expect("U total elements", "1352000", std::to_string(u->tot_size));
  expect("U bytes", "10816000", std::to_string(u->size_bytes));
  expect("U element", "8 double", std::to_string(u->element_size) + " " + u->data_type);
  expect("U density", "0", std::to_string(u->acc_density));
  expect("Fig 14 region (1:3,1:5,1:10,1:4) present", "yes", fig14 ? "yes" : "no");
  expect("hotspot global by USE refs", "u", hotspot);
}

/// Every generated kernel through the full differential pipeline: compile,
/// analyze, interpret, compare — the independent oracle for the analysis.
void check_kernels_against_oracle(const Project& p, Tally& tally) {
  for (std::size_t k = 0; k < p.kernels.size(); ++k) {
    const ara::serve::SourceBuffer& unit = p.units[p.kernels[k]];
    ara::difftest::GeneratedProgram prog;
    prog.filename = unit.name;
    prog.source = unit.text;
    prog.lang = unit.lang;
    prog.entry = p.kernel_entries[k];
    const ara::difftest::DiffReport rep = ara::difftest::run_difftest(prog);
    std::string why = unit.name + ": oracle verdict unsound";
    if (!rep.error.empty()) why += " (" + rep.error + ")";
    if (!rep.violations.empty()) why += " (" + rep.violations.front().kind + ")";
    tally.check(rep.sound(), why);
  }
}

}  // namespace

ara::serve::BatchOptions batch_options(const RunContext& ctx, const std::string& cache_dir) {
  ara::serve::BatchOptions opts;
  opts.jobs = ctx.jobs;
  opts.cache_dir = cache_dir;
  return opts;
}

std::unique_ptr<Verified> build_and_verify(const RunContext& ctx, Tally& tally,
                                           const std::string& cache_dir) {
  auto v = std::make_unique<Verified>();
  v->project = make_project(ctx.repo, ctx.seed);
  std::string why;
  tally.check(project_self_test(ctx.repo, ctx.seed, &why), why);
  check_kernels_against_oracle(v->project, tally);

  ara::driver::Compiler cc;
  for (const auto& u : v->project.units) cc.add_source(u.name, u.text, u.lang);
  if (!cc.compile()) {
    tally.fail("monolithic compile failed: " + cc.diagnostics().render());
    return v;
  }
  const ara::ipa::AnalysisResult mono = cc.analyze();
  v->rows = mono.rows;
  v->rgn = ara::rgn::write_rgn(mono.rows);
  check_lu_tables(v->rows, tally);

  const ara::serve::BatchResult batch =
      ara::serve::run_batch(v->project.units, batch_options(ctx, cache_dir), "bench");
  tally.check(batch.ok, "verifying batch run failed");
  tally.check(ara::rgn::write_rgn(batch.link.rows) == v->rgn,
              "batch .rgn bytes differ from the monolithic driver's");
  v->provenance = batch.provenance;
  return v;
}

void add_end_to_end(const EndToEnd& e2e, Result& result) {
  result.add("setup_s", e2e.setup_s, "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("p50_ms", e2e.latency_ms.median(), "ms");
  result.add("ops_per_s", e2e.busy_s > 0 ? e2e.ops / e2e.busy_s : 0.0, "1/s");
  describe("operation latency", e2e.latency_ms, "ms");
  std::printf("  set-up (median of %d)        %.3f s\n", kSetupRepeats, e2e.setup_s);
}

}  // namespace perfbench
