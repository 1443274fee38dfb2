#include "lno/dependence.hpp"

#include <map>
#include <set>

#include "ipa/wn_affine.hpp"
#include "serve/threadpool.hpp"
#include "support/string_utils.hpp"

namespace ara::lno {

using ipa::wn_to_affine;
using ir::Opr;
using ir::StIdx;
using ir::WN;
using regions::Constraint;
using regions::LinExpr;
using regions::LinSystem;
using regions::make_ge;
using regions::make_le;

std::string_view to_string(LoopVerdict v) {
  switch (v) {
    case LoopVerdict::Parallelizable:
      return "PARALLELIZABLE";
    case LoopVerdict::ArrayDependence:
      return "ARRAY-DEPENDENCE";
    case LoopVerdict::ScalarDependence:
      return "SCALAR-DEPENDENCE";
    case LoopVerdict::CallInLoop:
      return "CALL-IN-LOOP";
    case LoopVerdict::NotAnalyzable:
      return "NOT-ANALYZABLE";
  }
  return "?";
}

namespace {

struct InnerLoop {
  std::string var;
  LinExpr lo;
  LinExpr hi;
};

struct RefInfo {
  StIdx array = ir::kInvalidSt;
  bool is_def = false;
  bool messy = false;
  std::uint32_t line = 0;          // reference's source line (for citations)
  std::vector<LinExpr> subs;       // source-order affine subscripts
  std::vector<InnerLoop> context;  // inner loops enclosing this reference
};

struct BodyScan {
  std::vector<RefInfo> refs;
  bool has_call = false;
  bool non_affine_inner = false;
  // Scalars: first body event and whether any DEF exists.
  std::map<StIdx, bool> scalar_first_is_def;
  std::set<StIdx> scalar_defs;
};

class Scanner {
 public:
  Scanner(const ir::Program& program, const std::string& outer_var)
      : program_(program), outer_var_(outer_var) {}

  BodyScan scan(const WN& body) {
    visit_block(body);
    return std::move(out_);
  }

 private:
  void note_scalar(StIdx st, bool is_def) {
    const ir::St& sym = program_.symtab.st(st);
    if (sym.sclass == ir::StClass::Proc) return;
    if (program_.symtab.ty(sym.ty).is_array()) return;
    const std::string name = to_lower(sym.name);
    if (name == outer_var_) return;
    for (const InnerLoop& il : inner_) {
      if (il.var == name) return;  // loop indices are private by construction
    }
    out_.scalar_first_is_def.try_emplace(st, is_def);
    if (is_def) out_.scalar_defs.insert(st);
  }

  void record_array(const WN& arr, bool is_def) {
    RefInfo info;
    info.array = arr.array_base()->st_idx();
    info.is_def = is_def;
    info.line = arr.linenum().line;
    info.context = inner_;
    const ir::Ty& ty = program_.symtab.ty(program_.symtab.st(info.array).ty);
    const std::size_t n = arr.num_dim();
    for (std::size_t i = 0; i < n; ++i) {
      // Source order (row-major kid order reversed for Fortran); the lower
      // bound shift cancels between the two instances, so the zero-based
      // form is fine for equality tests.
      const std::size_t kid = (!ty.is_array() || ty.row_major) ? i : n - 1 - i;
      const auto e = wn_to_affine(*arr.array_index(kid), program_.symtab);
      if (!e) {
        info.messy = true;
        break;
      }
      info.subs.push_back(*e);
    }
    out_.refs.push_back(std::move(info));
    for (std::size_t i = 0; i < n; ++i) visit_expr(*arr.array_index(i));
  }

  /// An Iload/Istore address: an Array node, or a Coindex (remote coarray
  /// access) whose kids are the Array and the image index. A remote element
  /// is recorded as the local array's element, which errs on the safe side;
  /// the image index's scalar reads still count.
  void record_address(const WN& addr, bool is_def) {
    if (addr.opr() != Opr::Coindex) {
      record_array(addr, is_def);
      return;
    }
    record_array(*addr.kid(0), is_def);
    visit_expr(*addr.kid(1));
  }

  void visit_expr(const WN& wn) {
    switch (wn.opr()) {
      case Opr::Ldid:
        note_scalar(wn.st_idx(), /*is_def=*/false);
        return;
      case Opr::Iload:
        record_address(*wn.kid(0), /*is_def=*/false);
        return;
      case Opr::Array:
        record_array(wn, /*is_def=*/false);
        return;
      default:
        for (std::size_t i = 0; i < wn.kid_count(); ++i) visit_expr(*wn.kid(i));
        return;
    }
  }

  void visit_stmt(const WN& wn) {
    switch (wn.opr()) {
      case Opr::Stid:
        visit_expr(*wn.kid(0));  // rhs reads happen before the write
        note_scalar(wn.st_idx(), /*is_def=*/true);
        return;
      case Opr::Istore:
        visit_expr(*wn.kid(0));
        record_address(*wn.kid(1), /*is_def=*/true);
        return;
      case Opr::DoLoop: {
        const auto lo = wn_to_affine(*wn.loop_init(), program_.symtab);
        const auto hi = wn_to_affine(*wn.loop_end(), program_.symtab);
        visit_expr(*wn.loop_init());
        visit_expr(*wn.loop_end());
        visit_expr(*wn.loop_step());
        if (!lo || !hi) out_.non_affine_inner = true;
        inner_.push_back(InnerLoop{
            to_lower(program_.symtab.st(wn.loop_idname()->st_idx()).name),
            lo.value_or(LinExpr()), hi.value_or(LinExpr())});
        visit_block(*wn.loop_body());
        inner_.pop_back();
        return;
      }
      case Opr::If:
        visit_expr(*wn.kid(0));
        visit_block(*wn.kid(1));
        visit_block(*wn.kid(2));
        return;
      case Opr::Call:
        out_.has_call = true;
        for (std::size_t i = 0; i < wn.kid_count(); ++i) visit_expr(*wn.kid(i));
        return;
      default:
        return;
    }
  }

  void visit_block(const WN& block) {
    for (std::size_t i = 0; i < block.kid_count(); ++i) visit_stmt(*block.kid(i));
  }

  const ir::Program& program_;
  std::string outer_var_;
  std::vector<InnerLoop> inner_;
  BodyScan out_;
};

/// Renames every loop-owned variable (the outer index + the reference's
/// inner indices) with an instance suffix, leaving free parameters shared.
LinExpr rename_instance(const LinExpr& e, const std::string& outer,
                        const std::vector<InnerLoop>& inner, const char* suffix) {
  LinExpr out = e;
  auto rename = [&](const std::string& name) {
    if (out.coef(name) != 0) {
      out = out.substituted(name, LinExpr::var(name + suffix));
    }
  };
  rename(outer);
  for (const InnerLoop& il : inner) rename(il.var);
  return out;
}

/// Adds one instance's loop-bound constraints (outer + inner, renamed).
void add_instance_bounds(LinSystem& sys, const std::string& outer, const LinExpr& lo,
                         const LinExpr& hi, const std::vector<InnerLoop>& inner,
                         const char* suffix) {
  const LinExpr iv = LinExpr::var(outer + suffix);
  sys.add(make_ge(iv, rename_instance(lo, outer, inner, suffix)));
  sys.add(make_le(iv, rename_instance(hi, outer, inner, suffix)));
  for (const InnerLoop& il : inner) {
    const LinExpr v = LinExpr::var(il.var + suffix);
    sys.add(make_ge(v, rename_instance(il.lo, outer, inner, suffix)));
    sys.add(make_le(v, rename_instance(il.hi, outer, inner, suffix)));
  }
}

/// True when an instance of `a` and a *later-iteration* instance of `b` may
/// address the same element (one direction of the dependence test).
bool conflict_ordered(const RefInfo& a, const RefInfo& b, const std::string& outer,
                      const LinExpr& lo, const LinExpr& hi) {
  LinSystem sys;
  for (std::size_t d = 0; d < a.subs.size(); ++d) {
    const LinExpr ea = rename_instance(a.subs[d], outer, a.context, "!1");
    const LinExpr eb = rename_instance(b.subs[d], outer, b.context, "!2");
    sys.add(Constraint{ea - eb, Constraint::Rel::Eq0});
  }
  add_instance_bounds(sys, outer, lo, hi, a.context, "!1");
  add_instance_bounds(sys, outer, lo, hi, b.context, "!2");
  // Distinct iterations of the analyzed loop: i1 <= i2 - 1.
  sys.add(make_le(LinExpr::var(outer + "!1") + LinExpr(1), LinExpr::var(outer + "!2")));
  return sys.feasible();
}

/// True when instances of `a` and `b` in two *different* iterations may
/// address the same element. Both orders must be checked: a flow dependence
/// places the DEF in the earlier iteration, an anti dependence in the later
/// one.
bool may_conflict(const RefInfo& a, const RefInfo& b, const std::string& outer,
                  const LinExpr& lo, const LinExpr& hi) {
  if (a.array != b.array) return false;
  if (a.messy || b.messy) return true;  // conservatively dependent
  if (a.subs.size() != b.subs.size()) return true;
  return conflict_ordered(a, b, outer, lo, hi) || conflict_ordered(b, a, outer, lo, hi);
}

}  // namespace

LoopAnalysis analyze_loop(const WN& loop, const ipa::CGNode& node, const ir::Program& program) {
  LoopAnalysis out;
  out.proc = program.symtab.st(node.proc_st).name;
  out.line = loop.linenum().line;
  out.index_var = to_lower(program.symtab.st(loop.loop_idname()->st_idx()).name);

  const auto lo = wn_to_affine(*loop.loop_init(), program.symtab);
  const auto hi = wn_to_affine(*loop.loop_end(), program.symtab);
  if (!lo || !hi) {
    out.verdict = LoopVerdict::NotAnalyzable;
    out.detail = "non-affine loop bounds";
    return out;
  }

  Scanner scanner(program, out.index_var);
  const BodyScan scan = scanner.scan(*loop.loop_body());

  if (scan.has_call) {
    // The paper's APO restriction; the Fig 1 interprocedural advisor is the
    // tool's answer to this case.
    out.verdict = LoopVerdict::CallInLoop;
    out.detail = "function calls inside loops cannot be handled (use the "
                 "interprocedural region advisor)";
    return out;
  }
  if (scan.non_affine_inner) {
    out.verdict = LoopVerdict::NotAnalyzable;
    out.detail = "non-affine inner loop bounds";
    return out;
  }
  for (const auto& [st, first_is_def] : scan.scalar_first_is_def) {
    if (!first_is_def && scan.scalar_defs.count(st) != 0) {
      out.verdict = LoopVerdict::ScalarDependence;
      out.detail = "scalar '" + program.symtab.st(st).name +
                   "' is read before written in the iteration (reduction?)";
      return out;
    }
  }
  for (const RefInfo& def : scan.refs) {
    if (!def.is_def) continue;
    for (const RefInfo& other : scan.refs) {
      if (may_conflict(def, other, out.index_var, *lo, *hi)) {
        out.verdict = LoopVerdict::ArrayDependence;
        out.detail = "array '" + program.symtab.st(def.array).name +
                     "' may be touched by two different iterations";
        out.dep_array = program.symtab.st(def.array).name;
        out.dep_line_a = def.line;
        out.dep_line_b = other.line;
        return out;
      }
    }
  }
  out.verdict = LoopVerdict::Parallelizable;
  const Language lang = program.sources.language(node.proc->file);
  out.directive = lang == Language::Fortran ? "!$omp parallel do" : "#pragma omp parallel for";
  return out;
}

std::vector<LoopAnalysis> find_parallel_loops(const ir::Program& program,
                                              const ipa::CallGraph& cg, std::size_t jobs) {
  // Discovery is cheap and stays serial so the loop order (and therefore the
  // report order) never depends on scheduling; only the per-loop dependence
  // analysis — where all the Fourier–Motzkin time goes — fans out.
  std::vector<std::pair<const WN*, const ipa::CGNode*>> loops;
  for (std::uint32_t n = 0; n < cg.size(); ++n) {
    const ipa::CGNode& node = cg.node(n);
    if (!node.proc->tree) continue;
    node.proc->tree->walk([&](const WN& wn) {
      if (wn.opr() != Opr::DoLoop) return true;
      loops.emplace_back(&wn, &node);
      return false;  // outermost loops only
    });
  }
  std::vector<LoopAnalysis> out(loops.size());
  if (jobs == 1 || loops.size() < 2) {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      out[i] = analyze_loop(*loops[i].first, *loops[i].second, program);
    }
    return out;
  }
  serve::ThreadPool pool(jobs);
  pool.parallel_for(loops.size(), [&](std::size_t i) {
    out[i] = analyze_loop(*loops[i].first, *loops[i].second, program);
  });
  return out;
}

}  // namespace ara::lno
