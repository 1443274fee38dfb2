// Cross-unit global-declaration import (scoped v1, C units only). The serve
// engine compiles one translation unit at a time, so a C unit referencing a
// file-scope variable declared in a *sibling* unit used to fail sema with
// "use of undeclared identifier" — the whole-program front end resolves the
// same reference through its program-wide globals map. build_global_index
// recovers that map for separate compilation: it parse-only scans every C
// source and collects the file-scope declarations (first declaration wins,
// in unit order, exactly like Sema::declare_globals), producing the
// fe::GlobalImportTable that sema consults before erroring. Symbols resolved
// this way are marked SymInfo::Kind::Import in the unit summary and bound to
// the declaring unit's Global at link time, so the linked symbol table — and
// every exported byte — matches the monolithic pipeline. An imported shape
// is the one input a summary takes from another unit, so a summary is
// reused only while imports_current holds for this run's index.
#pragma once

#include <string>
#include <vector>

#include "frontend/sema.hpp"
#include "serve/engine.hpp"

namespace ara::serve {

/// Parse-only scan of the C sources' file-scope declarations. Returns an
/// empty table for single-unit batches (nothing to import from) or when no
/// C unit is present; units that fail to parse contribute nothing (they will
/// fail properly under the per-unit error barrier). Never throws.
[[nodiscard]] fe::GlobalImportTable build_global_index(
    const std::vector<SourceBuffer>& sources);

/// One-token digest of an import declaration's shape: name, type, layout
/// and every bound.
[[nodiscard]] std::string import_signature(const fe::ImportDecl& decl);

/// True when `summary` imported exactly what `index` offers now: for each
/// of its SymInfo::Kind::Import symbols, the index still has the symbol's
/// lowercase name with an equal import_signature. A changed declaration
/// thus re-summarizes exactly the units that import it. Only C units hold
/// imports, so any other summary is current.
[[nodiscard]] bool imports_current(const UnitSummary& summary,
                                   const fe::GlobalImportTable& index);

}  // namespace ara::serve
