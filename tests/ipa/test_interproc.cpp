// IPA tests: formal->actual region mapping (Creusillet-style), formal-scalar
// substitution, transitive propagation, recursion fixpoints and Mem_Loc
// binding resolution.
#include "ipa/interproc.hpp"

#include <gtest/gtest.h>

#include "frontend/compile.hpp"
#include "ipa/analyzer.hpp"
#include "support/string_utils.hpp"

namespace ara::ipa {
namespace {

using regions::AccessMode;

struct Analyzed {
  ir::Program program;
  DiagnosticEngine diags{nullptr};
  AnalysisResult result;
};

std::unique_ptr<Analyzed> analyze(const std::string& text) {
  auto out = std::make_unique<Analyzed>();
  out->program.sources.add("t.f", text, Language::Fortran);
  EXPECT_TRUE(fe::compile_program(out->program, out->diags)) << out->diags.render();
  out->result = ipa::analyze(out->program);
  return out;
}

const ModeRegions* effects_of(const Analyzed& a, const char* proc, const char* array,
                              AccessMode mode) {
  const SideEffects* effects = a.result.effects_of(proc, a.program);
  if (effects == nullptr) return nullptr;
  for (const auto& [key, mr] : effects->effects) {
    if (key.second == mode && iequals(a.program.symtab.st(key.first).name, array)) return &mr;
  }
  return nullptr;
}

const regions::Region* effect_of(const Analyzed& a, const char* proc, const char* array,
                                 AccessMode mode) {
  const ModeRegions* mr = effects_of(a, proc, array, mode);
  return mr == nullptr || mr->regions.empty() ? nullptr : &mr->regions.front();
}

/// True when some region of `mr` holds element `i` of a 1-D array once the
/// symbol `var` is bound to `value`. An UNPROJECTED bound holds everything.
bool covers(const ModeRegions& mr, const char* var, std::int64_t value, std::int64_t i) {
  for (const regions::Region& r : mr.regions) {
    const regions::DimAccess& d = r.dim(0);
    if (!d.lb.known() || !d.ub.known()) return true;
    const regions::LinExpr lb = d.lb.expr.substituted(var, regions::LinExpr(value));
    const regions::LinExpr ub = d.ub.expr.substituted(var, regions::LinExpr(value));
    if (!lb.is_constant() || !ub.is_constant()) continue;
    const std::int64_t lo = std::min(lb.constant(), ub.constant());
    const std::int64_t hi = std::max(lb.constant(), ub.constant());
    const std::int64_t step = d.stride == 0 ? 1 : std::abs(d.stride);
    if (lo <= i && i <= hi && (i - lb.constant()) % step == 0) return true;
  }
  return false;
}

const char* kFig1 =
    "subroutine p1(a, j)\n"
    "  integer, dimension(1:200, 1:200) :: a\n"
    "  integer :: j, i, k\n"
    "  do i = 1, 100\n"
    "    do k = 1, 100\n"
    "      a(i, k) = i + k + j\n"
    "    end do\n"
    "  end do\n"
    "end subroutine p1\n"
    "subroutine p2(a, j)\n"
    "  integer, dimension(1:200, 1:200) :: a\n"
    "  integer :: j, i, k, s\n"
    "  do i = 101, 200\n"
    "    do k = 101, 200\n"
    "      s = s + a(i, k)\n"
    "    end do\n"
    "  end do\n"
    "end subroutine p2\n"
    "subroutine add\n"
    "  integer, dimension(1:200, 1:200) :: a\n"
    "  integer :: m, j\n"
    "  m = 10\n"
    "  do j = 1, m\n"
    "    call p1(a, j)\n"
    "    call p2(a, j)\n"
    "  end do\n"
    "end subroutine add\n";

TEST(Interproc, Fig1EffectsPropagateToCaller) {
  auto a = analyze(kFig1);
  const regions::Region* def = effect_of(*a, "add", "a", AccessMode::Def);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->str(), "(1:100:1, 1:100:1)");
  const regions::Region* use = effect_of(*a, "add", "a", AccessMode::Use);
  ASSERT_NE(use, nullptr);
  EXPECT_EQ(use->str(), "(101:200:1, 101:200:1)");
}

TEST(Interproc, Fig1CallSiteRecordsAreIDefIUse) {
  auto a = analyze(kFig1);
  std::size_t idef = 0;
  std::size_t iuse = 0;
  for (const AccessRecord& rec : a->result.records) {
    if (!rec.interproc) continue;
    if (rec.mode == AccessMode::Def) ++idef;
    if (rec.mode == AccessMode::Use) ++iuse;
  }
  EXPECT_EQ(idef, 1u);  // one DEF effect at the p1 call site
  EXPECT_EQ(iuse, 1u);
}

TEST(Interproc, FormalBindingResolvesAddresses) {
  auto a = analyze(kFig1);
  // p1's formal a is bound to add's local a; resolve_addr chases the chain.
  ir::StIdx formal = ir::kInvalidSt;
  ir::StIdx actual = ir::kInvalidSt;
  for (ir::StIdx idx : a->program.symtab.all_sts()) {
    const ir::St& st = a->program.symtab.st(idx);
    if (st.name != "a") continue;
    if (st.storage == ir::StStorage::Formal &&
        a->program.symtab.st(st.owner_proc).name == "p1") {
      formal = idx;
    }
    if (st.storage == ir::StStorage::Local) actual = idx;
  }
  ASSERT_NE(formal, ir::kInvalidSt);
  ASSERT_NE(actual, ir::kInvalidSt);
  EXPECT_EQ(resolve_addr(formal, a->program, a->result.formal_binding),
            a->program.symtab.st(actual).addr);
}

TEST(Interproc, FormalScalarSubstitution) {
  // callee touches v(1:n); caller passes n=7 — the caller-side region must
  // read (1:7).
  auto a = analyze(
      "subroutine callee(v, n)\n"
      "  integer :: n, i\n"
      "  double precision :: v(100)\n"
      "  do i = 1, n\n"
      "    v(i) = 0.0\n"
      "  end do\n"
      "end subroutine callee\n"
      "subroutine caller\n"
      "  double precision :: x(100)\n"
      "  call callee(x, 7)\n"
      "end subroutine caller\n");
  const regions::Region* def = effect_of(*a, "caller", "x", AccessMode::Def);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->str(), "(1:7:1)");
}

TEST(Interproc, SymbolicActualSubstitutes) {
  auto a = analyze(
      "subroutine callee(v, n)\n"
      "  integer :: n, i\n"
      "  double precision :: v(100)\n"
      "  do i = 1, n\n"
      "    v(i) = 0.0\n"
      "  end do\n"
      "end subroutine callee\n"
      "subroutine caller(m)\n"
      "  integer :: m\n"
      "  double precision :: x(100)\n"
      "  call callee(x, m - 1)\n"
      "end subroutine caller\n");
  const regions::Region* def = effect_of(*a, "caller", "x", AccessMode::Def);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->dim(0).ub.str(), "m - 1");
}

TEST(Interproc, CalleeLocalNamesArePoisoned) {
  // The callee's bound depends on its own local t, meaningless to callers:
  // the translated bound must be UNPROJECTED, not silently wrong.
  auto a = analyze(
      "subroutine callee(v)\n"
      "  integer :: t, i\n"
      "  double precision :: v(100)\n"
      "  t = 10\n"
      "  do i = 1, t\n"
      "    v(i) = 0.0\n"
      "  end do\n"
      "end subroutine callee\n"
      "subroutine caller\n"
      "  double precision :: x(100)\n"
      "  call callee(x)\n"
      "end subroutine caller\n");
  const regions::Region* def = effect_of(*a, "caller", "x", AccessMode::Def);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->dim(0).ub.kind, regions::BoundKind::Unprojected);
}

TEST(Interproc, GlobalsPropagateTransitively) {
  auto a = analyze(
      "subroutine leaf\n"
      "  double precision :: g(50)\n"
      "  integer :: i\n"
      "  common /blk/ g\n"
      "  do i = 1, 50\n"
      "    g(i) = 0.0\n"
      "  end do\n"
      "end subroutine leaf\n"
      "subroutine mid\n"
      "  call leaf\n"
      "end subroutine mid\n"
      "subroutine top\n"
      "  call mid\n"
      "end subroutine top\n");
  const regions::Region* def = effect_of(*a, "top", "g", AccessMode::Def);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->str(), "(1:50:1)");
}

TEST(Interproc, RecursionReachesAFixpoint) {
  auto a = analyze(
      "subroutine r(v, n)\n"
      "  integer :: n\n"
      "  double precision :: v(10)\n"
      "  v(n) = 0.0\n"
      "  if (n .gt. 1) then\n"
      "    call r(v, n - 1)\n"
      "  end if\n"
      "end subroutine r\n");
  EXPECT_TRUE(a->result.callgraph.has_cycle());
  // r(v, n) writes v(1:n) for every n in the declared 1..10; the summary
  // must cover all of it, not just the window the last pass reached.
  const ModeRegions* def = effects_of(*a, "r", "v", AccessMode::Def);
  ASSERT_NE(def, nullptr);
  EXPECT_LE(def->regions.size(), ModeRegions::kMaxRegions);
  for (std::int64_t n = 1; n <= 10; ++n) {
    for (std::int64_t i = 1; i <= n; ++i) {
      EXPECT_TRUE(covers(*def, "n", n, i)) << "v(" << i << ") with n = " << n;
    }
  }
}

TEST(Interproc, ConvergentRecursionKeepsItsExactSummary) {
  // The recursive call's effect on v is already in r's own summary, so the
  // regions converge: nothing is widened to the declared extent.
  auto a = analyze(
      "subroutine r(v, n)\n"
      "  integer :: n\n"
      "  double precision :: v(10)\n"
      "  v(2) = 0.0\n"
      "  if (n .gt. 1) then\n"
      "    call r(v, n - 1)\n"
      "  end if\n"
      "end subroutine r\n");
  const regions::Region* def = effect_of(*a, "r", "v", AccessMode::Def);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->str(), "(2:2:1)");
}

TEST(Interproc, AmbiguousBindingResolvesToZero) {
  auto a = analyze(
      "subroutine callee(v)\n"
      "  double precision :: v(5)\n"
      "  v(1) = 0.0\n"
      "end subroutine callee\n"
      "subroutine caller\n"
      "  double precision :: x(5), y(5)\n"
      "  call callee(x)\n"
      "  call callee(y)\n"
      "end subroutine caller\n");
  ir::StIdx formal = ir::kInvalidSt;
  for (ir::StIdx idx : a->program.symtab.all_sts()) {
    const ir::St& st = a->program.symtab.st(idx);
    if (st.name == "v" && st.storage == ir::StStorage::Formal) formal = idx;
  }
  ASSERT_NE(formal, ir::kInvalidSt);
  EXPECT_EQ(resolve_addr(formal, a->program, a->result.formal_binding), 0u);
}

TEST(Interproc, PassThroughFormalChainsResolve) {
  auto a = analyze(
      "subroutine inner(w)\n"
      "  double precision :: w(5)\n"
      "  w(1) = 0.0\n"
      "end subroutine inner\n"
      "subroutine outer(v)\n"
      "  double precision :: v(5)\n"
      "  call inner(v)\n"
      "end subroutine outer\n"
      "subroutine top\n"
      "  double precision :: x(5)\n"
      "  call outer(x)\n"
      "end subroutine top\n");
  // inner's DEF must surface at top via outer.
  const regions::Region* def = effect_of(*a, "top", "x", AccessMode::Def);
  ASSERT_NE(def, nullptr);
  // And w's address chain (w -> v -> x) resolves to x.
  ir::StIdx w = ir::kInvalidSt;
  ir::StIdx x = ir::kInvalidSt;
  for (ir::StIdx idx : a->program.symtab.all_sts()) {
    const ir::St& st = a->program.symtab.st(idx);
    if (st.name == "w") w = idx;
    if (st.name == "x") x = idx;
  }
  EXPECT_EQ(resolve_addr(w, a->program, a->result.formal_binding),
            a->program.symtab.st(x).addr);
}

}  // namespace
}  // namespace ara::ipa
