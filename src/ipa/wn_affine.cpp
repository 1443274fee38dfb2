#include "ipa/wn_affine.hpp"

#include "support/string_utils.hpp"

namespace ara::ipa {

using regions::LinExpr;

std::optional<LinExpr> wn_to_affine(const ir::WN& wn, const ir::SymbolTable& symtab) {
  switch (wn.opr()) {
    case ir::Opr::Intconst:
      return LinExpr(wn.const_val());
    case ir::Opr::Ldid: {
      if (wn.st_idx() == ir::kInvalidSt) return std::nullopt;
      const ir::St& st = symtab.st(wn.st_idx());
      if (symtab.ty(st.ty).is_array()) return std::nullopt;
      if (!ir::mtype_is_integral(symtab.ty(st.ty).mtype)) return std::nullopt;
      return LinExpr::var(to_lower(st.name));
    }
    case ir::Opr::Cvt:
      return wn_to_affine(*wn.kid(0), symtab);
    case ir::Opr::Neg: {
      auto v = wn_to_affine(*wn.kid(0), symtab);
      if (!v) return std::nullopt;
      return -*v;
    }
    case ir::Opr::Add:
    case ir::Opr::Sub: {
      auto a = wn_to_affine(*wn.kid(0), symtab);
      auto b = wn_to_affine(*wn.kid(1), symtab);
      if (!a || !b) return std::nullopt;
      return wn.opr() == ir::Opr::Add ? *a + *b : *a - *b;
    }
    case ir::Opr::Mpy: {
      auto a = wn_to_affine(*wn.kid(0), symtab);
      auto b = wn_to_affine(*wn.kid(1), symtab);
      if (!a || !b) return std::nullopt;
      if (a->is_constant()) return *b * a->constant();
      if (b->is_constant()) return *a * b->constant();
      return std::nullopt;  // product of two variables is not affine
    }
    default:
      return std::nullopt;
  }
}

bool is_whole_array(const ir::WN& wn, const ir::SymbolTable& symtab) {
  return (wn.opr() == ir::Opr::Lda || wn.opr() == ir::Opr::Ldid) &&
         wn.st_idx() != ir::kInvalidSt && symtab.ty(symtab.st(wn.st_idx()).ty).is_array();
}

}  // namespace ara::ipa
