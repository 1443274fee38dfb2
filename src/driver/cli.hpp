// The `arac` command-line driver, as a library entry point so the test
// suite can exercise the full CLI in-process (tests/driver/test_arac.cpp).
// tools/arac.cpp is a thin argv shim around run_arac().
//
//   arac --export-dir out --stats --time-report --trace run.json app.f
//
// mirrors the paper's §V-B workflow (`-IPA:array_section:array_summary
// -dragon`) and additionally surfaces the telemetry layer: counter tables,
// a hierarchical phase time report, and a Perfetto-loadable trace.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ara::driver {

/// Runs the arac CLI with `args` (argv[1..], program name excluded).
/// Normal output goes to `out`, diagnostics and errors to `err`.
/// Returns the process exit code: 0 clean success; 1 total failure (usage
/// errors, no unit survived, link/export failures, internal errors);
/// 2 partial success (the run dropped some units but the survivors linked —
/// see <name>.failures.json). docs/robustness.md has the contract.
int run_arac(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace ara::driver
