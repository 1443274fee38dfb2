// Run configuration and the set-up the batch and daemon workloads share
// (fuzz verifies its own programs instead): build the seeded project,
// self-test the generator, and verify the program's outputs
// before anything is timed — LU's XCR/U rows against the paper's Tables
// II/III, every generated kernel against the interpreter oracle, and the
// batch engine's .rgn bytes against the monolithic driver's. Later
// operations are checked against the rows verified here.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "obs/provenance.hpp"
#include "project.hpp"
#include "report.hpp"
#include "rgn/region_row.hpp"
#include "serve/engine.hpp"

namespace perfbench {

struct RunContext {
  std::filesystem::path repo;  // checkout root (workloads/lu lives here)
  std::filesystem::path work;  // scratch directory for caches and the socket
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::size_t jobs = 1;
};

/// The project plus the outputs verified for it.
struct Verified {
  Project project;
  std::vector<ara::rgn::RegionRow> rows;
  std::string rgn;                                 // .rgn bytes
  std::vector<ara::obs::ProvRecord> provenance;    // batch provenance, merged order
};

/// Batch options every workload uses: `jobs` workers, cache at `cache_dir`
/// ("" = no cache).
[[nodiscard]] ara::serve::BatchOptions batch_options(const RunContext& ctx,
                                                     const std::string& cache_dir);

/// Builds and verifies the project (see the file comment). The verifying
/// batch run uses `cache_dir`, so a workload that needs a populated summary
/// cache gets it from here. Every check is counted in `tally`.
[[nodiscard]] std::unique_ptr<Verified> build_and_verify(const RunContext& ctx, Tally& tally,
                                                         const std::string& cache_dir);

/// Runs `make` kSetupRepeats times, dropping each result before building
/// the next, and returns the last; `*median_s` receives the median wall
/// time of one set-up. The peak resident set is reset afterwards, so
/// `peak_rss_mb` covers the timed phase, not the set-ups.
inline constexpr int kSetupRepeats = 3;
template <class Make>
auto repeated_setup(Make make, double* median_s) -> decltype(make()) {
  decltype(make()) state{};
  Samples times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state = {};
    const Clock::time_point t0 = Clock::now();
    state = make();
    times.add(ms_since(t0) / 1000.0);
  }
  *median_s = times.median();
  reset_peak_rss();
  return state;
}

/// The end-to-end metrics every workload reports (untraced run).
struct EndToEnd {
  double setup_s = 0.0;
  Samples latency_ms;     // one sample per operation
  double ops = 0.0;       // operations completed
  double busy_s = 0.0;    // seconds the operations took (daemon: process CPU seconds)
};
void add_end_to_end(const EndToEnd& e2e, Result& result);

/// True while `deadline` has not passed.
[[nodiscard]] inline bool before(Clock::time_point deadline) { return Clock::now() < deadline; }
[[nodiscard]] inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace perfbench
