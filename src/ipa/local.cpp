#include "ipa/local.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "ipa/wn_affine.hpp"
#include "obs/provenance.hpp"
#include "obs/stats.hpp"
#include "support/string_utils.hpp"

namespace ara::ipa {

ARA_STATISTIC(stat_access_records, "ipa.access_records", "Access records emitted (local ARA)");
ARA_STATISTIC(stat_messy_dims, "regions.messy_dims",
              "Subscript dimensions that fell back to MESSY bounds");
ARA_STATISTIC(stat_projected_dims, "regions.dims_projected",
              "Subscript dimensions projected through loop bounds");
ARA_STATISTIC(stat_unprojected_dims, "regions.unprojected_dims",
              "Declared/translated dimensions left UNPROJECTED");

namespace {

/// True when the subscript tree reads an array element (a(b(i))): the
/// "subscripted subscript" pattern the ROADMAP's irregular-access item needs
/// attributed separately from plain non-affine arithmetic.
bool contains_array_read(const ir::WN& wn) {
  if (wn.opr() == ir::Opr::Array || wn.opr() == ir::Opr::Iload) return true;
  for (std::size_t i = 0; i < wn.kid_count(); ++i) {
    if (contains_array_read(*wn.kid(i))) return true;
  }
  return false;
}

/// Counts + attributes UNPROJECTED dims of a freshly declared region
/// (assumed-size formals/actuals carry no extent to project).
void note_unknown_extents(const regions::Region& r, const obs::ProvCtx& ctx) {
  for (std::size_t i = 0; i < r.rank(); ++i) {
    const regions::DimAccess& d = r.dim(i);
    if (d.lb.kind != regions::BoundKind::Unprojected &&
        d.ub.kind != regions::BoundKind::Unprojected) {
      continue;
    }
    stat_unprojected_dims.bump();
    obs::prov_record(obs::CauseKind::UnknownExtent, ctx, static_cast<std::int32_t>(i),
                     "dimension has no declared extent (assumed size)");
  }
}

}  // namespace

using regions::AccessMode;
using regions::Bound;
using regions::BoundKind;
using regions::DimAccess;
using regions::LinExpr;
using regions::Region;

regions::Region declared_region(const ir::Ty& ty) {
  Region r;
  for (const ir::ArrayDim& d : ty.dims) {
    DimAccess da;
    if (d.lb.has_value()) {
      da.lb = Bound::constant(*d.lb);
    } else if (!d.lb_sym.empty()) {
      da.lb = Bound::affine(BoundKind::Subscr, LinExpr::var(d.lb_sym));
    } else {
      da.lb = Bound::unprojected();
    }
    if (d.ub.has_value()) {
      da.ub = Bound::constant(*d.ub);
    } else if (!d.ub_sym.empty()) {
      da.ub = Bound::affine(BoundKind::Subscr, LinExpr::var(d.ub_sym));
    } else {
      da.ub = Bound::unprojected();
    }
    da.stride = 1;
    r.push_dim(std::move(da));
  }
  return r;
}

LocalSummary LocalAnalyzer::analyze(const CGNode& node) const {
  Walk walk;
  walk.node = &node;

  // FORMAL rows: every array formal contributes its declared extent; the
  // paper's tables also show scalar formals (e.g. CLASS in Fig 12), so
  // scalars get a rank-0 record too.
  const ir::SymbolTable& symtab = program_.symtab;
  for (ir::StIdx idx : symtab.all_sts()) {
    const ir::St& st = symtab.st(idx);
    if (st.owner_proc != node.proc_st || st.storage != ir::StStorage::Formal) continue;
    AccessRecord rec;
    rec.array = idx;
    rec.mode = AccessMode::Formal;
    rec.region = declared_region(symtab.ty(st.ty));
    rec.scope_proc = node.proc_st;
    rec.file = node.proc->file;
    rec.line = st.loc.line;
    note_unknown_extents(rec.region, {symtab.st(node.proc_st).name, st.name,
                                      program_.sources.name(node.proc->file), st.loc.line});
    add_record(std::move(rec), walk);
  }

  if (node.proc->tree) visit(*node.proc->tree, walk);
  return std::move(walk.out);
}

LocalSummary LocalAnalyzer::analyze_subtree(const ir::WN& root, const CGNode& node) const {
  Walk walk;
  walk.node = &node;
  visit(root, walk);
  return std::move(walk.out);
}

void LocalAnalyzer::add_record(AccessRecord rec, Walk& walk) const {
  // Side effects cover DEF/USE of symbols visible to callers.
  const ir::St& st = program_.symtab.st(rec.array);
  const bool visible =
      st.storage == ir::StStorage::Global || st.storage == ir::StStorage::Formal;
  if (visible && (rec.mode == AccessMode::Def || rec.mode == AccessMode::Use)) {
    // Attribution for any union widening/drop the merge performs.
    obs::ProvScope scope({program_.symtab.st(walk.node->proc_st).name, st.name,
                          program_.sources.name(walk.node->proc->file), rec.line});
    walk.out.side_effects.effects[{rec.array, rec.mode}].merge(rec.region, rec.refs);
  }
  stat_access_records.bump();
  walk.out.records.push_back(std::move(rec));
}

void LocalAnalyzer::visit_kids(const ir::WN& wn, Walk& walk) const {
  for (std::size_t i = 0; i < wn.kid_count(); ++i) visit(*wn.kid(i), walk);
}

void LocalAnalyzer::visit(const ir::WN& wn, Walk& walk) const {
  switch (wn.opr()) {
    case ir::Opr::Istore:
      visit(*wn.kid(0), walk);  // rhs first: its loads are USEs
      if (wn.kid(1)->opr() == ir::Opr::Array) {
        record_array(*wn.kid(1), AccessMode::Def, walk);
      } else if (wn.kid(1)->opr() == ir::Opr::Coindex) {
        // Remote coarray PUT (§VI): record against the co-indexed image.
        record_array(*wn.kid(1)->kid(0), AccessMode::Def, walk, wn.kid(1)->kid(1));
        visit(*wn.kid(1)->kid(1), walk);
      }
      return;
    case ir::Opr::Iload:
      if (wn.kid(0)->opr() == ir::Opr::Array) {
        record_array(*wn.kid(0), AccessMode::Use, walk);
      } else if (wn.kid(0)->opr() == ir::Opr::Coindex) {
        record_array(*wn.kid(0)->kid(0), AccessMode::Use, walk, wn.kid(0)->kid(1));
        visit(*wn.kid(0)->kid(1), walk);
      }
      return;
    case ir::Opr::Stid:
      record_scalar(wn, AccessMode::Def, walk);
      visit(*wn.kid(0), walk);
      return;
    case ir::Opr::Ldid:
      record_scalar(wn, AccessMode::Use, walk);
      return;
    case ir::Opr::DoLoop: {
      LoopCtx ctx;
      ctx.var = to_lower(program_.symtab.st(wn.loop_idname()->st_idx()).name);
      ctx.init = wn_to_affine(*wn.loop_init(), program_.symtab);
      ctx.limit = wn_to_affine(*wn.loop_end(), program_.symtab);
      const auto step = wn_to_affine(*wn.loop_step(), program_.symtab);
      if (step && step->is_constant() && step->constant() != 0) ctx.step = step->constant();
      // Bound expressions may themselves read arrays/scalars.
      visit(*wn.loop_init(), walk);
      visit(*wn.loop_end(), walk);
      visit(*wn.loop_step(), walk);
      walk.loops.push_back(std::move(ctx));
      visit(*wn.loop_body(), walk);
      walk.loops.pop_back();
      return;
    }
    case ir::Opr::Call:
      record_call(wn, walk);
      return;
    case ir::Opr::Array:
      // A bare ARRAY outside ILOAD/ISTORE/PARM (address expression): treat
      // conservatively as a USE of the element region.
      record_array(wn, AccessMode::Use, walk);
      return;
    default:
      visit_kids(wn, walk);
      return;
  }
}

void LocalAnalyzer::record_scalar(const ir::WN& wn, AccessMode mode, Walk& walk) const {
  if (wn.st_idx() == ir::kInvalidSt) return;
  const ir::St& st = program_.symtab.st(wn.st_idx());
  if (st.sclass == ir::StClass::Proc) return;
  if (program_.symtab.ty(st.ty).is_array()) return;
  // Only caller-visible scalars appear in the table (locals would flood it).
  if (st.storage != ir::StStorage::Global && st.storage != ir::StStorage::Formal) return;
  AccessRecord rec;
  rec.array = wn.st_idx();
  rec.mode = mode;
  rec.region = Region{};  // rank 0
  rec.scope_proc = walk.node->proc_st;
  rec.file = walk.node->proc->file;
  rec.line = wn.linenum().line;
  add_record(std::move(rec), walk);
}

regions::DimAccess LocalAnalyzer::project_subscript(LinExpr subscript,
                                                    const std::vector<LoopCtx>& loops,
                                                    const obs::ProvCtx* prov,
                                                    std::int32_t dim) const {
  // Count the loop variables the subscript (transitively) depends on: inner
  // loop bounds may reference outer induction variables (triangular loops),
  // so walk innermost-out accumulating reachable variables.
  std::size_t nvars = 0;
  {
    // Explicit dependence set rather than substitution into one running
    // expression: summing a loop's bounds into the subscript can cancel an
    // outer variable's direct coefficient (e.g. i - j with j = i..N folds to
    // a constant), hiding a genuinely two-variable subscript from the count.
    std::set<support::VarId> dep;
    for (const regions::Term& t : subscript.terms()) dep.insert(t.id);
    for (auto it = loops.rbegin(); it != loops.rend(); ++it) {
      if (dep.find(support::intern_var(it->var)) == dep.end()) continue;
      ++nvars;
      if (!it->affine()) {
        stat_messy_dims.bump();
        if (prov != nullptr && obs::prov_capturing()) {
          obs::prov_record(obs::CauseKind::NonAffineLoopBound, *prov, dim,
                           "enclosing loop '" + it->var + "' has non-affine bounds");
        }
        return DimAccess{Bound::messy(), Bound::messy(), 1};
      }
      for (const regions::Term& t : it->init->terms()) dep.insert(t.id);
      for (const regions::Term& t : it->limit->terms()) dep.insert(t.id);
    }
  }

  /// Value of L's induction variable on its final trip: exact when the
  /// bounds are constant, otherwise the loop limit (a <=step-sized
  /// over-approximation).
  auto last_of = [](const LoopCtx& L) {
    const std::int64_t step = L.step.value_or(1);
    if (L.init->is_constant() && L.limit->is_constant() && L.step.has_value() && step != 0) {
      const std::int64_t trips = (L.limit->constant() - L.init->constant()) / step;
      if (trips >= 0) return LinExpr(L.init->constant() + trips * step);
    }
    return *L.limit;
  };

  LinExpr lb = subscript;
  LinExpr ub = subscript;
  std::int64_t stride = 0;

  if (nvars == 1) {
    // Single induction variable: preserve the traversal direction — LB is
    // the value on the first trip, UB on the last, stride = c * step (may be
    // negative; the earlier Dragon lost exactly this, §II).
    for (auto it = loops.rbegin(); it != loops.rend(); ++it) {
      const LoopCtx& L = *it;
      const std::int64_t c = lb.coef(L.var);
      if (c == 0) continue;
      stride = c * L.step.value_or(1);
      lb = lb.substituted(L.var, *L.init);
      ub = ub.substituted(L.var, last_of(L));
      break;
    }
    // Bounds may still mention outer loop variables (triangular); fall
    // through to the multi-variable min/max pass for those.
  }
  // Multi-variable (or residual) projection: substitute each variable at
  // its extreme trips so LB is minimal and UB maximal; the stride collapses
  // to the gcd of the per-variable contributions (always positive).
  for (auto it = loops.rbegin(); it != loops.rend(); ++it) {
    const LoopCtx& L = *it;
    const std::int64_t step = L.step.value_or(1);
    const LinExpr last = last_of(L);
    const std::int64_t c_lb = lb.coef(L.var);
    if (c_lb != 0) {
      if (nvars > 1) {
        const std::int64_t contrib = c_lb * step;
        const std::int64_t mag = contrib < 0 ? -contrib : contrib;
        stride = stride == 0 ? mag : std::gcd(stride < 0 ? -stride : stride, mag);
      }
      lb = lb.substituted(L.var, c_lb * step > 0 ? *L.init : last);
    }
    const std::int64_t c_ub = ub.coef(L.var);
    if (c_ub != 0) ub = ub.substituted(L.var, c_ub * step > 0 ? last : *L.init);
  }

  stat_projected_dims.bump();
  DimAccess d;
  // Bound provenance per the OpenUH taxonomy (§IV-C): a single induction
  // variable yields IVAR bounds; multiple coupled variables were linearized
  // (LINDEX); a loop-free subscript is SUBSCR. Constants fold to CONST
  // inside Bound::affine.
  const BoundKind kind =
      nvars > 1 ? BoundKind::LIndex : (nvars == 1 ? BoundKind::IVar : BoundKind::Subscr);
  d.lb = Bound::affine(kind, std::move(lb));
  d.ub = Bound::affine(kind, std::move(ub));
  if (nvars == 1 && stride != 0) {
    d.stride = stride;  // signed: preserves direction
  } else {
    d.stride = stride < 0 ? -stride : stride;
    if (d.stride == 0) d.stride = 1;
  }
  return d;
}

void LocalAnalyzer::record_array(const ir::WN& arr, AccessMode mode, Walk& walk,
                                 const ir::WN* image) const {
  const ir::WN* base = arr.array_base();
  if (base->st_idx() == ir::kInvalidSt) return;
  const ir::StIdx array_st = base->st_idx();
  const ir::Ty& ty = program_.symtab.ty(program_.symtab.st(array_st).ty);
  const std::size_t n = arr.num_dim();

  AccessRecord rec;
  rec.array = array_st;
  rec.mode = mode;
  rec.scope_proc = walk.node->proc_st;
  rec.file = walk.node->proc->file;
  rec.line = arr.linenum().line;
  if (image != nullptr) {
    rec.remote = true;
    const auto img = wn_to_affine(*image, program_.symtab);
    rec.image = img ? img->str() : "?";
  }

  const obs::ProvCtx prov{program_.symtab.st(walk.node->proc_st).name,
                          program_.symtab.st(array_st).name,
                          program_.sources.name(walk.node->proc->file), arr.linenum().line};

  for (std::size_t i = 0; i < n; ++i) {
    // Source dimension i corresponds to row-major kid i for C, reversed for
    // Fortran (lowering reversed the source order; cf. §V-B: Dragon converts
    // the compiler's row-major zero-based form back to source form).
    const std::size_t kid = (!ty.is_array() || ty.row_major) ? i : n - 1 - i;
    const ir::WN* index = arr.array_index(kid);
    const auto affine = wn_to_affine(*index, program_.symtab);
    if (!affine) {
      stat_messy_dims.bump();
      if (obs::prov_capturing()) {
        const bool subsub = contains_array_read(*index);
        obs::prov_record(subsub ? obs::CauseKind::SubscriptedSubscript
                                : obs::CauseKind::NonAffineSubscript,
                         prov, static_cast<std::int32_t>(i),
                         subsub ? "subscript reads an array element"
                                : "subscript is not an affine expression");
      }
      rec.region.push_dim(DimAccess{Bound::messy(), Bound::messy(), 1});
      continue;
    }
    // Back to source indexing: lowering produced zero-based indices by
    // subtracting the declared lower bound.
    LinExpr src = *affine;
    if (ty.is_array() && i < ty.dims.size()) {
      const ir::ArrayDim& d = ty.dims[i];
      if (d.lb.has_value()) {
        src += LinExpr(*d.lb);
      } else if (!d.lb_sym.empty()) {
        src += LinExpr::var(d.lb_sym);
      }
    }
    rec.region.push_dim(
        project_subscript(std::move(src), walk.loops, &prov, static_cast<std::int32_t>(i)));
  }

  add_record(std::move(rec), walk);

  // Subscript expressions can contain further array reads (a(b(i))).
  for (std::size_t i = 0; i < n; ++i) visit(*arr.array_index(i), walk);
}

void LocalAnalyzer::record_call(const ir::WN& call, Walk& walk) const {
  for (std::size_t i = 0; i < call.kid_count(); ++i) {
    const ir::WN* parm = call.kid(i);
    if (parm->opr() != ir::Opr::Parm || parm->kid_count() == 0) continue;
    const ir::WN* arg = parm->kid(0);
    if (is_whole_array(*arg, program_.symtab)) {
      AccessRecord rec;
      rec.array = arg->st_idx();
      rec.mode = AccessMode::Passed;
      rec.region = declared_region(program_.symtab.ty(program_.symtab.st(arg->st_idx()).ty));
      rec.scope_proc = walk.node->proc_st;
      rec.file = walk.node->proc->file;
      rec.line = call.linenum().line;
      note_unknown_extents(rec.region,
                           {program_.symtab.st(walk.node->proc_st).name,
                            program_.symtab.st(arg->st_idx()).name,
                            program_.sources.name(walk.node->proc->file), rec.line});
      add_record(std::move(rec), walk);
      continue;
    }
    if (arg->opr() == ir::Opr::Array) {
      // Element actual: the passed region is that element (sub-array start).
      record_array(*arg, AccessMode::Passed, walk);
      continue;
    }
    visit(*arg, walk);
  }
}

}  // namespace ara::ipa
