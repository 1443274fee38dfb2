// Daemon serving performance on the LU workload: one arad server process'
// worth of state (in-process DaemonServer + DaemonClient over a real Unix
// socket), measuring the three analyze regimes — cold, warm (all units
// resident), incremental (a one-unit edit re-analyzes that unit only) —
// and the warm query path (p50/p99 latency, requests/sec). The
// headline is warm_query_speedup: how much faster a warm `query` answers
// than the cold analysis a plain one-shot arac would have to repeat.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "daemon/client.hpp"
#include "daemon/server.hpp"
#include "serve/engine.hpp"
#include "support/json.hpp"

namespace {

namespace fs = std::filesystem;
using ara::daemon::DaemonClient;
using ara::daemon::DaemonOptions;
using ara::daemon::DaemonServer;
using ara::serve::SourceBuffer;

std::vector<SourceBuffer> lu_units() {
  std::vector<SourceBuffer> units;
  for (const fs::path& f : ara::bench::lu_sources()) {
    std::optional<SourceBuffer> buf = ara::serve::read_source(f.string(), nullptr);
    if (!buf.has_value()) {
      std::fprintf(stderr, "cannot read %s\n", f.string().c_str());
      std::exit(1);
    }
    units.push_back(std::move(*buf));
  }
  return units;
}

/// analyze params for the LU project; `edited` appends a comment to one
/// unit (exact.f) so only it re-analyzes.
std::string analyze_params(const std::vector<SourceBuffer>& units, bool edited) {
  std::string os = "{\"project\":\"lu\",\"jobs\":4,\"sources\":[";
  bool first = true;
  for (const SourceBuffer& u : units) {
    if (!first) os += ',';
    first = false;
    std::string text = u.text;
    if (edited && fs::path(u.name).filename() == "exact.f") {
      text += "\n! edited\n";
    }
    os += "{\"name\":\"" + ara::json::escape(u.name) + "\",\"lang\":\"fortran\",\"text\":\"" +
          ara::json::escape(text) + "\"}";
  }
  os += "]}";
  return os;
}

double reply_num(const ara::daemon::RpcReply& reply, std::string_view key) {
  const ara::json::Value* m = reply.result.find(key);
  return (m != nullptr && m->is_number()) ? m->number : 0;
}

/// One timed RPC; exits on failure (a bench with a half-broken daemon
/// would otherwise report garbage).
double timed_call_ms(DaemonClient& client, const std::string& method,
                     const std::string& params, ara::daemon::RpcReply* reply_out = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  auto reply = client.call(method, params);
  const auto t1 = std::chrono::steady_clock::now();
  if (!reply.has_value() || !reply->ok) {
    std::fprintf(stderr, "%s request failed: %s\n", method.c_str(),
                 reply.has_value() ? reply->error.c_str() : "(transport)");
    std::exit(1);
  }
  if (reply_out != nullptr) *reply_out = std::move(*reply);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Daemon {
  Daemon()
      : server(DaemonOptions{
            (fs::temp_directory_path() / ("ara_bench_daemon_" + std::to_string(::getpid()) + ".sock"))
                .string(),
            /*jobs=*/2, /*max_resident_mb=*/512, /*analyze_jobs=*/4}) {
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "cannot start daemon: %s\n", error.c_str());
      std::exit(1);
    }
    if (!client.connect(server.socket_path(), &error)) {
      std::fprintf(stderr, "cannot connect: %s\n", error.c_str());
      std::exit(1);
    }
  }
  ~Daemon() {
    client.close();
    server.stop();
  }
  DaemonServer server;
  DaemonClient client;
};

void print_reproduction(const char* argv0) {
  const std::vector<SourceBuffer> units = lu_units();
  Daemon d;

  std::printf("=== arad serving the LU workload (%zu units) ===\n", units.size());

  ara::daemon::RpcReply cold_reply;
  const double cold_ms =
      timed_call_ms(d.client, "analyze", analyze_params(units, false), &cold_reply);
  const double rows = reply_num(cold_reply, "rows");
  std::printf("  cold analyze:        %8.3f ms  (%0.f rows)\n", cold_ms, rows);

  ara::daemon::RpcReply warm_reply;
  const double warm_ms =
      timed_call_ms(d.client, "analyze", analyze_params(units, false), &warm_reply);
  std::printf("  warm analyze:        %8.3f ms  (%.0f resident, speedup %.2fx)\n", warm_ms,
              reply_num(warm_reply, "resident_hits"), cold_ms / warm_ms);

  ara::daemon::RpcReply inc_reply;
  const double inc_ms =
      timed_call_ms(d.client, "analyze", analyze_params(units, true), &inc_reply);
  const double reanalyzed = reply_num(inc_reply, "cache_misses");
  const double invalidated = reply_num(inc_reply, "invalidated_units");
  std::printf("  incremental analyze: %8.3f ms  (%.0f re-analyzed, %.0f invalidated, speedup %.2fx)\n",
              inc_ms, reanalyzed, invalidated, cold_ms / inc_ms);

  // Warm query path, two shapes: the full 942-row table (worst case — the
  // bytes dominate: ~77 KiB rendered, escaped, shipped, and parsed per
  // round trip) and the single-array query a developer actually asks
  // ("what does the analysis say about `a`?"). A short untimed warmup
  // first, then best-of-3 rounds of 200 — same idiom as batch_seconds'
  // best-of-5 — so one scheduler hiccup cannot own the p99.
  struct QueryStats {
    double p50, p99, rps;
  };
  const auto measure = [&](const char* params) {
    constexpr int kWarmup = 20;
    constexpr int kQueries = 200;
    constexpr int kRounds = 3;
    for (int i = 0; i < kWarmup; ++i) timed_call_ms(d.client, "query", params);
    QueryStats best{1e9, 1e9, 0};
    for (int round = 0; round < kRounds; ++round) {
      std::vector<double> lat_ms;
      lat_ms.reserve(kQueries);
      const auto q0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kQueries; ++i) {
        lat_ms.push_back(timed_call_ms(d.client, "query", params));
      }
      const auto q1 = std::chrono::steady_clock::now();
      std::sort(lat_ms.begin(), lat_ms.end());
      if (lat_ms[(kQueries * 99) / 100] < best.p99) {
        best.p99 = lat_ms[(kQueries * 99) / 100];
        best.p50 = lat_ms[kQueries / 2];
        best.rps = kQueries / std::chrono::duration<double>(q1 - q0).count();
      }
    }
    return best;
  };

  const QueryStats table = measure("{\"project\":\"lu\"}");
  const QueryStats one = measure("{\"project\":\"lu\",\"array\":\"a\"}");
  const double speedup = cold_ms / one.p99;
  std::printf("  warm query (table):  p50 %.3f ms, p99 %.3f ms, %.0f requests/sec\n", table.p50,
              table.p99, table.rps);
  std::printf("  warm query (array):  p50 %.3f ms, p99 %.3f ms, %.0f requests/sec\n", one.p50,
              one.p99, one.rps);
  std::printf("  warm array-query p99 vs cold analyze: %.0fx faster\n", speedup);

  ara::bench::BenchJson json("daemon", "lu");
  json.metric("units", static_cast<double>(units.size()), "count", "exact");
  json.metric("rgn_rows", rows, "count", "exact");
  json.metric("incremental_reanalyzed_units", reanalyzed, "count", "exact");
  json.metric("incremental_invalidated_units", invalidated, "count", "exact");
  json.metric("warm_resident_hits", reply_num(warm_reply, "resident_hits"), "count", "exact");
  json.metric("cold_analyze_ms", cold_ms, "ms", "lower");
  json.metric("warm_analyze_ms", warm_ms, "ms", "lower");
  json.metric("incremental_analyze_ms", inc_ms, "ms", "lower");
  json.metric("query_table_p50_ms", table.p50, "ms", "lower");
  json.metric("query_table_p99_ms", table.p99, "ms", "lower");
  json.metric("query_table_requests_per_sec", table.rps, "req/s", "higher");
  json.metric("query_array_p50_ms", one.p50, "ms", "lower");
  json.metric("query_array_p99_ms", one.p99, "ms", "lower");
  json.metric("query_array_requests_per_sec", one.rps, "req/s", "higher");
  json.metric("warm_query_speedup", speedup, "x", "higher");
  json.write_next_to(argv0);
}

void BM_DaemonWarmQuery(benchmark::State& state) {
  const std::vector<SourceBuffer> units = lu_units();
  Daemon d;
  timed_call_ms(d.client, "analyze", analyze_params(units, false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(timed_call_ms(d.client, "query", "{\"project\":\"lu\"}"));
  }
}
BENCHMARK(BM_DaemonWarmQuery)->Unit(benchmark::kMicrosecond);

void BM_DaemonResidentAnalyze(benchmark::State& state) {
  const std::vector<SourceBuffer> units = lu_units();
  Daemon d;
  const std::string params = analyze_params(units, false);
  timed_call_ms(d.client, "analyze", params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(timed_call_ms(d.client, "analyze", params));
  }
}
BENCHMARK(BM_DaemonResidentAnalyze)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const bool json_only = ara::bench::consume_flag(&argc, argv, "--json-only");
  print_reproduction(argv[0]);
  if (json_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
