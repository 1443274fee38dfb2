#include "difftest/oracle.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "driver/compiler.hpp"
#include "ir/symtab.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "regions/methods.hpp"

namespace ara::difftest {

ARA_STATISTIC(stat_kernels, "difftest.kernels", "Generated kernels run through the oracle");
ARA_STATISTIC(stat_kernel_failures, "difftest.kernel_failures",
              "Kernels that failed to compile or interpret");
ARA_STATISTIC(stat_points, "difftest.points_checked",
              "Dynamic access points checked for static containment");

namespace {

using regions::AccessMode;
using regions::Point;
using regions::Region;

/// MAY-semantics containment of one point in one dimension triplet. A
/// non-constant bound (IVar that did not fold, Messy, Unprojected, symbolic)
/// means the analysis claimed a data-dependent range; for the soundness
/// check that claim covers the whole dimension.
bool dim_covers(const regions::DimAccess& d, std::int64_t x) {
  const auto lb = d.lb.const_value();
  const auto ub = d.ub.const_value();
  if (!lb || !ub) return true;
  const std::int64_t lo = std::min(*lb, *ub);
  const std::int64_t hi = std::max(*lb, *ub);
  if (x < lo || x > hi) return false;
  const std::int64_t s = d.stride < 0 ? -d.stride : d.stride;
  if (s <= 1) return true;
  // The lattice is anchored at LB regardless of direction.
  const std::int64_t rem = (x - *lb) % s;
  return rem == 0;
}

bool region_covers(const Region& r, const Point& p) {
  if (r.rank() != p.size()) return true;  // whole-array / collapsed record
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!dim_covers(r.dim(i), p[i])) return false;
  }
  return true;
}

/// Enumerates a constant region's element set into `out`; false when the
/// region is not all-constant or exceeds `cap` elements.
bool enumerate_region(const Region& r, std::size_t rank, std::set<Point>* out, std::size_t cap) {
  if (r.rank() != rank || !r.all_const()) return false;
  const auto total = r.element_count();
  if (!total || static_cast<std::size_t>(*total) > cap) return false;
  Point p(rank, 0);
  // Odometer over the per-dimension lattices. A triplet whose bounds run
  // against its stride direction (e.g. [5:2:1] from a zero-trip loop) is
  // empty, so the whole region contributes nothing.
  std::vector<std::vector<std::int64_t>> lattices(rank);
  for (std::size_t i = 0; i < rank; ++i) {
    const regions::DimAccess& d = r.dim(i);
    const std::int64_t lb = *d.lb.const_value();
    const std::int64_t ub = *d.ub.const_value();
    const std::int64_t step = d.stride == 0 ? 1 : d.stride;
    if (step > 0 ? lb > ub : lb < ub) return true;  // empty triplet
    for (std::int64_t v = lb;; v += step) {
      lattices[i].push_back(v);
      if (step > 0 ? v + step > ub : v + step < ub) break;
    }
  }
  std::vector<std::size_t> idx(rank, 0);
  while (true) {
    for (std::size_t i = 0; i < rank; ++i) p[i] = lattices[i][idx[i]];
    out->insert(p);
    if (out->size() > cap) return false;
    std::size_t i = rank;
    while (i > 0) {
      --i;
      if (++idx[i] < lattices[i].size()) break;
      idx[i] = 0;
      if (i == 0) return true;
    }
    if (rank == 0) return true;
  }
}

std::string point_str(const Point& p) {
  std::ostringstream os;
  os << "(";
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i != 0) os << ", ";
    os << p[i];
  }
  os << ")";
  return os.str();
}

/// Cause kinds emitted while translating a callee summary to a call site;
/// they explain an interprocedural row wholesale rather than one dimension.
bool translation_kind(obs::CauseKind k) {
  return k == obs::CauseKind::UnresolvedCall || k == obs::CauseKind::ActualNotAffine ||
         k == obs::CauseKind::CalleeLocalEscape || k == obs::CauseKind::CalleeImprecision ||
         k == obs::CauseKind::LimitDemotion || k == obs::CauseKind::RecursionWidening;
}

/// The provenance oracle: walks every published region dimension, counts
/// the imprecise ones, and requires each Messy/Unprojected dimension to be
/// explained by at least one captured cause record — matched by array name
/// (a record with dim -1 covers the whole access), or for interproc rows by
/// any translation-kind record.
void check_provenance(const ir::Program& program, const ipa::AnalysisResult& result,
                      DiffReport* rep) {
  for (const ipa::AccessRecord& rec : result.records) {
    const std::string& name = program.symtab.st(rec.array).name;
    for (std::size_t i = 0; i < rec.region.rank(); ++i) {
      ++rep->dims_total;
      const regions::DimAccess& d = rec.region.dim(i);
      const bool messy = d.lb.kind == regions::BoundKind::Messy ||
                         d.ub.kind == regions::BoundKind::Messy;
      const bool unproj = d.lb.kind == regions::BoundKind::Unprojected ||
                          d.ub.kind == regions::BoundKind::Unprojected;
      if (messy) ++rep->dims_messy;
      if (unproj) ++rep->dims_unprojected;
      if (!messy && !unproj) continue;
      const bool explained =
          std::any_of(rep->provenance.begin(), rep->provenance.end(),
                      [&](const obs::ProvRecord& p) {
                        if (p.array == name &&
                            (p.dim < 0 || p.dim == static_cast<std::int32_t>(i))) {
                          return true;
                        }
                        return rec.interproc && translation_kind(p.kind);
                      });
      if (!explained) {
        Violation v;
        v.kind = "provenance";
        v.array = name;
        v.mode = std::string(regions::to_string(rec.mode));
        v.detail = "dimension " + std::to_string(i) + " is " +
                   (unproj ? "Unprojected" : "Messy") + " in " + rec.region.str() +
                   " but none of the " + std::to_string(rep->provenance.size()) +
                   " captured provenance records explains it";
        rep->violations.push_back(std::move(v));
      }
    }
  }
}

}  // namespace

DiffReport compare(const ir::Program& program, const ipa::AnalysisResult& result,
                   const interp::DynamicSummary& dyn) {
  DiffReport rep;
  rep.ran = true;
  constexpr std::size_t kEnumCap = 200'000;

  for (const auto& [key, entry] : dyn.entries()) {
    const auto [array_st, mode] = key;
    if (mode != AccessMode::Use && mode != AccessMode::Def) continue;
    const auto& points = entry.exact.points(mode);
    if (points.empty()) continue;
    ++rep.entries_checked;
    const std::string& name = program.symtab.st(array_st).name;
    const std::string mode_name(regions::to_string(mode));

    // Static records for the same syntactic base symbol and mode. Interproc
    // IDEF/IUSE rows duplicate callee effects at call sites; the local
    // records alone must already cover every executed access, so the
    // containment and refcount checks use only those.
    std::vector<const Region*> static_regions;
    std::uint64_t static_refs = 0;
    for (const ipa::AccessRecord& rec : result.records) {
      if (rec.array != array_st || rec.mode != mode || rec.interproc) continue;
      static_regions.push_back(&rec.region);
      static_refs += rec.refs;
    }

    if (static_regions.empty()) {
      Violation v;
      v.kind = "containment";
      v.array = name;
      v.mode = mode_name;
      v.detail = "no static " + mode_name + " record at all, but " +
                 std::to_string(points.size()) + " elements were touched, e.g. " +
                 point_str(*points.begin());
      rep.violations.push_back(std::move(v));
      continue;
    }

    // Containment: every observed element inside some static region.
    for (const Point& p : points) {
      stat_points.bump();
      ++rep.points_checked;
      const bool covered = std::any_of(static_regions.begin(), static_regions.end(),
                                       [&](const Region* r) { return region_covers(*r, p); });
      if (!covered) {
        Violation v;
        v.kind = "containment";
        v.array = name;
        v.mode = mode_name;
        std::ostringstream os;
        os << "element " << point_str(p) << " touched at runtime but outside all "
           << static_regions.size() << " static region(s):";
        for (const Region* r : static_regions) os << " " << r->str();
        v.detail = os.str();
        rep.violations.push_back(std::move(v));
        break;  // one example per entry keeps reports readable
      }
    }

    // Refcount: each distinct executed source-line site must have been
    // summarized as at least one static reference.
    if (static_refs < entry.distinct_sites()) {
      Violation v;
      v.kind = "refcount";
      v.array = name;
      v.mode = mode_name;
      v.detail = "static References = " + std::to_string(static_refs) + " but " +
                 std::to_string(entry.distinct_sites()) +
                 " distinct source lines touched the array at runtime";
      rep.violations.push_back(std::move(v));
    }

    // Tightness on the affine subset: when every static region is constant,
    // enumerate the static covered set and compare against the observed set.
    const std::size_t rank = points.begin()->size();
    std::set<Point> covered;
    bool affine = true;
    for (const Region* r : static_regions) {
      if (!enumerate_region(*r, rank, &covered, kEnumCap)) {
        affine = false;
        break;
      }
    }
    if (affine && !covered.empty()) {
      ++rep.entries_affine;
      const double ratio =
          static_cast<double>(covered.size()) / static_cast<double>(points.size());
      rep.max_over_approx = std::max(rep.max_over_approx, ratio);
      rep.sum_over_approx += ratio;
      if (covered == points) ++rep.entries_exact;
    }
  }
  return rep;
}

DiffReport run_difftest(const GeneratedProgram& prog, const interp::InterpOptions& iopts) {
  // One top-level span per generated kernel so fuzz runs expose the static
  // analysis cost of each program ("seed-<N>" in the trace/time report).
  obs::Span kernel_span("kernel seed-" + std::to_string(prog.seed), "difftest");
  stat_kernels.bump();
  DiffReport rep;
  driver::Compiler cc;
  cc.add_source(prog.filename, prog.source, prog.lang);
  if (!cc.compile()) {
    stat_kernel_failures.bump();
    rep.error = cc.diagnostics().render();
    rep.violations.push_back({"compile", "", "", rep.error});
    return rep;
  }
  // Capture the analysis's own account of its precision losses; the
  // comparator below checks it is complete (the "provenance" oracle).
  std::vector<obs::ProvRecord> prov;
  ipa::AnalysisResult result;
  {
    const obs::ProvSink sink(&prov, 0);
    result = cc.analyze();
  }

  interp::Interpreter interp(cc.program(), iopts);
  interp::DynamicSummary dyn;
  const interp::InterpResult r = interp.run(prog.entry, &dyn);
  if (!r.ok) {
    rep.error = r.error;
    stat_kernel_failures.bump();
    rep.violations.push_back({"runtime", "", "", rep.error});
    rep.provenance = std::move(prov);
    return rep;
  }
  DiffReport out = compare(cc.program(), result, dyn);
  out.provenance = std::move(prov);
  check_provenance(cc.program(), result, &out);
  return out;
}

}  // namespace ara::difftest
