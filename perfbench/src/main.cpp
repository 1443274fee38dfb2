// perfbench: the repository benchmark driver binary (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --repo DIR --work DIR
//   perfbench --self-test --repo DIR [--seed N]
//
// Prints human-readable progress, then as its last stdout line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exits 0 when every
// output check passed, 1 when one failed, 2 on a usage or set-up error
// (without a result line).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "project.hpp"
#include "report.hpp"
#include "setup.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload batch_cold|batch_edit|daemon_low|daemon_high|fuzz\n"
               "                 --seed N --seconds S --trace 0|1 --repo DIR --work DIR\n"
               "       perfbench --self-test --repo DIR [--seed N]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const unsigned long long n = std::stoull(v, &pos);
    if (pos == v.size()) return n;
  } catch (const std::exception&) {
  }
  usage("bad value for " + flag + ": '" + v + "'");
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string workload;
  bool self_test = false;
  bool have_seconds = false;
  fs::path work;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      ctx.seed = parse_u64(a, v);
    } else if (a == "--seconds") {
      const std::uint64_t s = parse_u64(a, v);
      if (s == 0 || s > 600) usage("--seconds must be in 1..600");
      ctx.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      ctx.trace = v == "1";
    } else if (a == "--repo") {
      ctx.repo = fs::absolute(v);
    } else if (a == "--work") {
      work = fs::absolute(v);
    } else {
      usage("unknown argument " + a);
    }
  }
  if (ctx.repo.empty()) usage("--repo is required");
  ctx.jobs = bench_jobs();

  try {
    if (self_test) {
      std::string why;
      if (!project_self_test(ctx.repo, ctx.seed, &why)) {
        std::fprintf(stderr, "perfbench: self-test FAILED: %s\n", why.c_str());
        return 1;
      }
      std::printf("perfbench: project generator self-test passed (seed %llu)\n",
                  static_cast<unsigned long long>(ctx.seed));
      return 0;
    }
    if (workload.empty() || !have_seconds || work.empty()) {
      usage("--workload, --seconds and --work are required");
    }
    // Caches and the daemon socket live under the work directory; running
    // from inside it keeps the socket path short whatever the checkout path.
    fs::remove_all(work);
    fs::create_directories(work);
    ctx.work = work;
    fs::current_path(work);

    Tally tally;
    Result result;
    std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d, %zu jobs\n",
                workload.c_str(), static_cast<unsigned long long>(ctx.seed), ctx.seconds,
                ctx.trace ? 1 : 0, ctx.jobs);
    const double reference_before = host_reference_ms();
    if (workload == "batch_cold") {
      run_batch_cold(ctx, tally, result);
    } else if (workload == "batch_edit") {
      run_batch_edit(ctx, tally, result);
    } else if (workload == "daemon_low") {
      run_daemon(ctx, 100.0, tally, result);
    } else if (workload == "daemon_high") {
      run_daemon(ctx, 500.0, tally, result);
    } else if (workload == "fuzz") {
      run_fuzz(ctx, tally, result);
    } else {
      usage("unknown workload '" + workload + "'");
    }
    fs::current_path(ctx.repo);
    fs::remove_all(work);
    std::printf("perfbench: host reference loop %.3f ms before, %.3f ms after the run\n",
                reference_before, host_reference_ms());

    tally.print_failures();
    std::printf("perfbench: %llu operations checked, %llu failed\n",
                static_cast<unsigned long long>(tally.attempted()),
                static_cast<unsigned long long>(tally.failed()));
    std::printf("%s\n", result.json(tally).c_str());
    std::fflush(stdout);
    return tally.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
