// The fuzz-smoke gate: 200 fixed-seed programs (100 seeds x both front
// ends) through the full differential pipeline, twice, asserting zero
// soundness violations and bit-identical results on repeat. This is the
// tier-1 guard that keeps the static analysis honest on every commit; the
// `arafuzz` binary registered under the same `fuzz-smoke` CTest label
// exercises the identical seed range from the command line.
//
// The same 200 programs also pin the pipelines' output: the whole-program
// analysis (driver::Compiler) and the batch engine (serve::run_batch) must
// export identical bytes, also when each Fortran program is split into one
// unit per subroutine, and a digest of the .rgn bytes pins the analysis
// itself, since the two pipelines share one propagation core.
#include <gtest/gtest.h>

#include <sstream>

#include "cfg/cfg.hpp"
#include "difftest/generator.hpp"
#include "difftest/oracle.hpp"
#include "driver/compiler.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"
#include "serve/engine.hpp"

namespace ara::difftest {
namespace {

struct BatchStats {
  std::uint64_t programs = 0;
  std::uint64_t failures = 0;
  std::uint64_t points = 0;
  std::uint64_t entries = 0;
  std::uint64_t exact = 0;
  std::uint64_t imprecise_dims = 0;  // Messy/Unprojected dims (provenance oracle)
  std::uint64_t prov_records = 0;

  friend bool operator==(const BatchStats&, const BatchStats&) = default;
};

BatchStats run_batch(std::uint64_t first_seed, int count) {
  BatchStats s;
  for (int n = 0; n < count; ++n) {
    for (Language lang : {Language::C, Language::Fortran}) {
      GenOptions o;
      o.seed = first_seed + static_cast<std::uint64_t>(n);
      o.lang = lang;
      const GeneratedProgram prog = generate(o);
      const DiffReport rep = run_difftest(prog);
      ++s.programs;
      s.points += rep.points_checked;
      s.entries += rep.entries_checked;
      s.exact += rep.entries_exact;
      s.imprecise_dims += rep.dims_messy + rep.dims_unprojected;
      s.prov_records += rep.provenance.size();
      if (!rep.sound()) {
        ++s.failures;
        ADD_FAILURE() << "seed " << o.seed << " " << to_string(lang) << ": "
                      << (rep.violations.empty() ? rep.error : rep.violations[0].detail);
      }
    }
  }
  return s;
}

TEST(FuzzSmoke, TwoHundredProgramsSoundAndDeterministic) {
  const BatchStats first = run_batch(1, 100);
  EXPECT_EQ(first.programs, 200u);
  EXPECT_EQ(first.failures, 0u);
  EXPECT_GT(first.points, 0u);
  EXPECT_GT(first.entries, 0u);
  // The provenance oracle must actually see work: the batch produces
  // imprecise dimensions, and each run_difftest explained every one of
  // them (a gap would have been a "provenance" violation above).
  EXPECT_GT(first.imprecise_dims, 0u);
  EXPECT_GT(first.prov_records, 0u);

  // Determinism on repeat: regenerating and re-running the same seeds must
  // reproduce every statistic bit-for-bit.
  const BatchStats second = run_batch(1, 100);
  EXPECT_EQ(first, second);
}

/// The three Dragon exports of one analysis, as bytes.
struct Exports {
  std::string rgn;
  std::string dgn;
  std::string cfg;
};

Exports whole_program(const std::vector<serve::SourceBuffer>& units) {
  driver::Compiler cc;
  for (const serve::SourceBuffer& u : units) cc.add_source(u.name, u.text, u.lang);
  if (!cc.compile()) {
    ADD_FAILURE() << cc.diagnostics().render();
    return {};
  }
  const ipa::AnalysisResult result = cc.analyze();
  return {rgn::write_rgn(result.rows),
          rgn::write_dgn(ipa::dgn_project(cc.program(), result.callgraph, "p")),
          cfg::write_cfg(cfg::build_all(cc.program()))};
}

Exports batch(const std::vector<serve::SourceBuffer>& units, std::size_t jobs) {
  serve::BatchOptions opts;
  opts.jobs = jobs;
  const serve::BatchResult r = serve::run_batch(units, opts, "p");
  if (!r.ok) {
    ADD_FAILURE() << "batch run failed: " << r.link.diags.render();
    return {};
  }
  return {rgn::write_rgn(r.link.rows), rgn::write_dgn(r.link.project), r.link.cfg_text};
}

/// One unit per `subroutine ... end subroutine` block of a generated
/// Fortran program, named after the program's file.
std::vector<serve::SourceBuffer> split_subroutines(const GeneratedProgram& prog) {
  std::vector<serve::SourceBuffer> units;
  std::istringstream in(prog.source);
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    if (!inside && line.rfind("subroutine ", 0) == 0) {
      inside = true;
      units.push_back({"u" + std::to_string(units.size()) + "_" + prog.filename, "",
                       Language::Fortran});
    }
    if (!inside) continue;
    units.back().text += line + "\n";
    if (line.rfind("end subroutine", 0) == 0) inside = false;
  }
  return units;
}

/// 64-bit FNV-1a, continued from `h`.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(FuzzSmoke, PipelinesExportIdenticalBytes) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t split_programs = 0;
  std::size_t split_units = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (Language lang : {Language::C, Language::Fortran}) {
      GenOptions o;
      o.seed = seed;
      o.lang = lang;
      const GeneratedProgram prog = generate(o);
      const std::vector<serve::SourceBuffer> one = {{prog.filename, prog.source, prog.lang}};
      const Exports mono = whole_program(one);
      const Exports linked = batch(one, 1);
      EXPECT_EQ(mono.rgn, linked.rgn) << "seed " << seed << " " << to_string(lang);
      EXPECT_EQ(mono.dgn, linked.dgn) << "seed " << seed << " " << to_string(lang);
      digest = fnv1a(digest, mono.rgn);

      if (lang != Language::Fortran) continue;
      const std::vector<serve::SourceBuffer> units = split_subroutines(prog);
      if (units.size() < 2) continue;
      ++split_programs;
      split_units += units.size();
      const Exports split_mono = whole_program(units);
      const Exports split_linked = batch(units, 4);
      EXPECT_EQ(split_mono.rgn, split_linked.rgn) << "split seed " << seed;
      EXPECT_EQ(split_mono.dgn, split_linked.dgn) << "split seed " << seed;
      EXPECT_EQ(split_mono.cfg, split_linked.cfg) << "split seed " << seed;
    }
  }
  EXPECT_EQ(split_programs, 100u);
  EXPECT_EQ(split_units, 300u);
  EXPECT_EQ(digest, 0x2b6789530b77db51ULL) << std::hex << digest;
}

}  // namespace
}  // namespace ara::difftest
