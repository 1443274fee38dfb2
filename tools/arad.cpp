// arad — the long-lived array-analysis daemon. Listens on a Unix socket,
// speaks ara.rpc.v1 (docs/FORMATS.md), and keeps per-project analysis state
// warm between requests so re-analysis after an edit touches only the
// changed units. Runs in the foreground; backgrounding is the caller's job
// (shell `&`, a supervisor, the tests' fixture). `arac --daemon-connect
// SOCKET` is the matching client.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/server.hpp"
#include "obs/stats.hpp"
#include "support/faultinject.hpp"

namespace {

void usage(std::ostream& out) {
  out << "arad — array-analysis daemon (ara.rpc.v1 over a Unix socket)\n"
         "\n"
         "usage: arad --socket PATH [options]\n"
         "\n"
         "  --help                this text\n"
         "  --socket PATH         Unix socket to listen on (required)\n"
         "  --jobs N              request worker threads (default 2)\n"
         "  --analyze-jobs N      per-analyze unit parallelism (default 1)\n"
         "  --max-resident-mb N   warm-project memory budget; least-recently\n"
         "                        used projects are evicted past it\n"
         "                        (default 512, 0 = unbounded)\n"
         "  --max-inflight N      admission budget: concurrent requests past\n"
         "                        it shed with code:\"overloaded\" (default 0\n"
         "                        = the worker-pool size)\n"
         "  --max-queue N         accepted-but-unserved connection budget;\n"
         "                        past it new connections are answered\n"
         "                        overloaded and closed (default 64, 0 = off)\n"
         "  --max-request-bytes N per-request line cap; oversized lines\n"
         "                        answer code:\"too_large\" (default 8 MiB)\n"
         "  --idle-timeout-ms N   close connections idle (or trickling) for\n"
         "                        this long (default 30000, 0 = off)\n"
         "  --default-deadline-ms N  analyze deadline when the request does\n"
         "                        not pass deadline_ms (default 0 = none)\n"
         "  --drain-ms N          graceful-drain budget for SIGTERM or\n"
         "                        shutdown {\"drain\":true} (default 5000)\n"
         "  --retry-after-ms N    backoff hint on shed responses (default 50)\n"
         "\n"
         "SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight\n"
         "requests within --drain-ms, persist caches, exit 0.\n"
         "\n"
         "methods: analyze, query, explain, status, shutdown — one JSON\n"
         "request per line, one JSON response per line (docs/daemon.md)\n";
}

// SIGTERM/SIGINT → graceful drain. The handler may only touch
// async-signal-safe state, and the flag is also read from the watcher
// thread — a lock-free atomic is the type that is safe on both axes
// (volatile sig_atomic_t is signal-safe but races with the thread).
std::atomic<int> g_signal_drain{0};
static_assert(std::atomic<int>::is_always_lock_free);

void on_terminate_signal(int) { g_signal_drain.store(1, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  ara::daemon::DaemonOptions opts;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&](const char* what) -> const std::string* {
      if (i + 1 >= args.size()) {
        std::cerr << "arad: " << what << " expects a value\n";
        return nullptr;
      }
      return &args[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(std::cout);
      return 0;
    } else if (a == "--socket") {
      const std::string* v = next("--socket");
      if (v == nullptr) return 1;
      opts.socket_path = *v;
    } else if (a == "--jobs") {
      const std::string* v = next("--jobs");
      if (v == nullptr) return 1;
      opts.jobs = static_cast<std::size_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (a == "--analyze-jobs") {
      const std::string* v = next("--analyze-jobs");
      if (v == nullptr) return 1;
      opts.analyze_jobs = static_cast<std::size_t>(std::strtoul(v->c_str(), nullptr, 10));
      if (opts.analyze_jobs == 0) opts.analyze_jobs = 1;
    } else if (a == "--max-resident-mb") {
      const std::string* v = next("--max-resident-mb");
      if (v == nullptr) return 1;
      opts.max_resident_mb = static_cast<std::size_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (a == "--max-inflight") {
      const std::string* v = next("--max-inflight");
      if (v == nullptr) return 1;
      opts.max_inflight = static_cast<std::size_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (a == "--max-queue") {
      const std::string* v = next("--max-queue");
      if (v == nullptr) return 1;
      opts.max_queue = static_cast<std::size_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (a == "--max-request-bytes") {
      const std::string* v = next("--max-request-bytes");
      if (v == nullptr) return 1;
      opts.max_request_bytes = static_cast<std::size_t>(std::strtoul(v->c_str(), nullptr, 10));
    } else if (a == "--idle-timeout-ms") {
      const std::string* v = next("--idle-timeout-ms");
      if (v == nullptr) return 1;
      opts.idle_timeout_ms = std::strtoull(v->c_str(), nullptr, 10);
    } else if (a == "--default-deadline-ms") {
      const std::string* v = next("--default-deadline-ms");
      if (v == nullptr) return 1;
      opts.default_deadline_ms = std::strtoull(v->c_str(), nullptr, 10);
    } else if (a == "--drain-ms") {
      const std::string* v = next("--drain-ms");
      if (v == nullptr) return 1;
      opts.drain_ms = std::strtoull(v->c_str(), nullptr, 10);
    } else if (a == "--retry-after-ms") {
      const std::string* v = next("--retry-after-ms");
      if (v == nullptr) return 1;
      opts.retry_after_ms = std::strtoull(v->c_str(), nullptr, 10);
    } else {
      std::cerr << "arad: unknown option '" << a << "'\n";
      usage(std::cerr);
      return 1;
    }
  }
  if (opts.socket_path.empty()) {
    std::cerr << "arad: --socket is required\n";
    usage(std::cerr);
    return 1;
  }

  // Telemetry on for the daemon's lifetime: status reports the request
  // latency histograms and the engine's counters keep counting.
  ara::obs::set_enabled(true);

  // ARA_FAILPOINTS in the environment arms fault injection for this process
  // — how the chaos harness drives a real spawned daemon through injected
  // accept/read/handle/respond/publish failures.
  if (std::string fi_error; !ara::fi::configure_from_env(&fi_error)) {
    std::cerr << "arad: bad ARA_FAILPOINTS: " << fi_error << "\n";
    return 1;
  }

  ara::daemon::DaemonServer server(std::move(opts));
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "arad: " << error << "\n";
    return 1;
  }

  // Graceful drain on SIGTERM/SIGINT: the handler flips a flag; this watcher
  // turns it into request_shutdown(drain=true), which ends wait() and makes
  // stop() finish in-flight work inside --drain-ms before severing.
  std::signal(SIGTERM, on_terminate_signal);
  std::signal(SIGINT, on_terminate_signal);
  std::atomic<bool> watcher_stop{false};
  std::thread signal_watcher([&server, &watcher_stop] {
    while (!watcher_stop.load()) {
      if (g_signal_drain.load(std::memory_order_relaxed) != 0) {
        server.request_shutdown(/*drain=*/true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::cout << "arad: listening on " << server.socket_path() << std::endl;
  server.wait();
  server.stop();
  watcher_stop.store(true);
  signal_watcher.join();
  std::cout << "arad: shut down after " << server.requests() << " request(s)\n";
  return 0;
}
