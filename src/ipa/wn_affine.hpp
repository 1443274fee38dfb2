// Conversion of WHIRL expression trees to affine LinExprs over scalar
// variable names. Subscripts that convert are "linearizable"; those that do
// not are the paper's MESSY bounds.
#pragma once

#include <optional>

#include "ir/program.hpp"
#include "regions/linexpr.hpp"

namespace ara::ipa {

/// Affine view of an expression: INTCONST, LDID of a scalar (by lowercase
/// source name), ADD/SUB, NEG, CVT and MPY-by-constant convert; anything
/// else (array loads, intrinsics, DIV/MOD, products of variables, float
/// constants) yields nullopt.
[[nodiscard]] std::optional<regions::LinExpr> wn_to_affine(const ir::WN& wn,
                                                           const ir::SymbolTable& symtab);

/// True for an LDA/LDID of an array symbol: a whole array passed as a call
/// actual (by reference), as opposed to one element or a scalar value.
[[nodiscard]] bool is_whole_array(const ir::WN& wn, const ir::SymbolTable& symtab);

}  // namespace ara::ipa
