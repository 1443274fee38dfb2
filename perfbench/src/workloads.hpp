// The benchmark's workloads. Each builds and verifies its inputs
// (repeated_setup), measures for ctx.seconds, checks every output, and
// appends the end-to-end metrics (untraced) or the per-layer metrics
// (traced) to `result`.
#pragma once

#include "report.hpp"
#include "setup.hpp"

namespace perfbench {

/// `arac --jobs N --cache-dir DIR` on a cold, empty cache: every unit is
/// compiled, summarized and stored, then linked.
void run_batch_cold(const RunContext& ctx, Tally& tally, Result& result);

/// A fresh `arac` re-run after a one-unit comment edit: the edited unit and
/// its dependents are re-analyzed, every other unit loads from disk.
void run_batch_edit(const RunContext& ctx, Tally& tally, Result& result);

/// A warm in-process `arad` on a Unix socket under an open loop of
/// query/explain requests at `rate` per second, with a closed-loop editor
/// re-analyzing a one-unit edit about once a second beside them.
void run_daemon(const RunContext& ctx, double rate, Tally& tally, Result& result);

/// The `arafuzz` soundness campaign: generate, compile, analyze, interpret
/// and compare one program after another, alternating C/Fortran and the
/// default/stress-FM grids.
void run_fuzz(const RunContext& ctx, Tally& tally, Result& result);

}  // namespace perfbench
