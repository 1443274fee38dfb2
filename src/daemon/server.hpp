// arad's core: a long-lived analysis server on a Unix-domain socket. One
// accept thread hands each connection to the serve thread pool
// (ThreadPool::submit), so concurrent clients multiplex onto the same
// workers the batch engine uses; each connection speaks ara.rpc.v1
// (daemon/rpc.hpp) and each request runs inside its own error barrier — a
// crashing request answers `ok:false` and the daemon keeps serving.
//
// Warm state: one serve::ProjectState per project name, holding the
// resident unit summaries across requests. `analyze` runs the incremental
// batch (only the units whose text changed, plus C units whose imported
// globals changed shape, are summarized again); `query` / `explain` answer
// from the latest published snapshot, including while a re-analysis is in
// flight. The total resident footprint is bounded by `max_resident_mb`:
// after each analyze, the least-recently-used projects are evicted (dropped
// entirely — the disk summary cache still makes their next analyze warm).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "daemon/rpc.hpp"
#include "serve/project.hpp"
#include "serve/threadpool.hpp"
#include "support/json.hpp"

namespace ara::daemon {

struct DaemonOptions {
  std::string socket_path;
  /// Request worker threads (connections served concurrently); 0 = hardware
  /// concurrency. Analyze requests additionally use BatchOptions::jobs
  /// workers inside run_batch.
  std::size_t jobs = 2;
  /// Resident-memory budget over all projects (snapshots + incremental
  /// state), in MiB. 0 = unbounded.
  std::size_t max_resident_mb = 512;
  /// Default unit-analysis parallelism for analyze requests that do not
  /// pass their own "jobs" param.
  std::size_t analyze_jobs = 1;

  // --- Overload-and-failure survival knobs (ISSUE 10) ---

  /// Admission budget: requests being handled concurrently. A request
  /// arriving past it is shed with `code:"overloaded"` instead of queuing.
  /// 0 = the pool size (workers bound concurrency, so nothing sheds here
  /// and the queue budget below does the load shedding).
  std::size_t max_inflight = 0;
  /// Connections accepted but not yet picked up by a worker. Past it the
  /// accept loop answers `overloaded` on the fresh fd and closes it — the
  /// backlog is bounded, never the client count.
  std::size_t max_queue = 64;
  /// Per-request line cap in bytes; an oversized line answers
  /// `code:"too_large"` and the connection is closed (framing is lost).
  std::size_t max_request_bytes = 8 * 1024 * 1024;
  /// Per-connection socket budget: a connection that produces no complete
  /// request for this long (idle or trickling) is closed, and a client not
  /// draining its response for this long is dropped. 0 = no timeout.
  std::uint64_t idle_timeout_ms = 30'000;
  /// Deadline applied to analyze requests that do not pass their own
  /// "deadline_ms" param (per-unit wall-clock watchdog). 0 = none.
  std::uint64_t default_deadline_ms = 0;
  /// Graceful-drain budget: how long stop() waits for in-flight requests
  /// to finish after a `shutdown {"drain":true}` / SIGTERM before severing.
  std::uint64_t drain_ms = 5'000;
  /// Backoff hint sent with `overloaded` / `shutting_down` sheds.
  std::uint64_t retry_after_ms = 50;
};

class DaemonServer {
 public:
  explicit DaemonServer(DaemonOptions opts);
  ~DaemonServer();

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// Binds the socket and starts the accept thread. False (with `error`
  /// set) when the socket cannot be created — e.g. another daemon is
  /// already listening on the path.
  [[nodiscard]] bool start(std::string* error);

  /// Blocks until a `shutdown` request (or stop()) ends the serve loop.
  void wait();

  /// Stops accepting, severs open connections, joins the accept thread.
  /// When a drain was requested (shutdown {"drain":true} or
  /// request_shutdown(true)), first waits up to opts.drain_ms for in-flight
  /// requests to finish — their responses go out before anything is
  /// severed. Idempotent; also called by the destructor.
  void stop();

  /// Asks the serve loop to end, exactly like a `shutdown` request over the
  /// wire: wait() returns and the caller runs stop(). `drain` additionally
  /// stops admitting new work (new requests answer `code:"shutting_down"`)
  /// while in-flight requests finish inside the drain budget. Safe to call
  /// from any thread (arad's SIGTERM watcher uses it).
  void request_shutdown(bool drain);

  [[nodiscard]] const std::string& socket_path() const { return opts_.socket_path; }

  /// Lifetime counters (tests and `status`).
  [[nodiscard]] std::uint64_t requests() const { return requests_.load(); }
  [[nodiscard]] std::uint64_t request_errors() const { return request_errors_.load(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_.load(); }
  [[nodiscard]] std::uint64_t shed_requests() const { return shed_requests_.load(); }
  [[nodiscard]] std::uint64_t shed_connections() const { return shed_connections_.load(); }
  [[nodiscard]] std::uint64_t too_large_requests() const { return too_large_.load(); }
  [[nodiscard]] std::uint64_t deadline_expired() const { return deadline_expired_.load(); }
  [[nodiscard]] bool draining() const { return draining_.load(); }

  /// One request line in, one response line out — the transport-free core,
  /// used directly by tests (no socket needed).
  [[nodiscard]] std::string handle_line(const std::string& line);

 private:
  void accept_loop();
  void serve_connection(int fd);

  /// Pre-execution admission check for a parsed request: nullopt admits;
  /// otherwise the shed response (`overloaded` past the in-flight budget,
  /// `shutting_down` while draining). status/shutdown are always admitted.
  [[nodiscard]] std::optional<std::string> admit(const RpcRequest& req);

  [[nodiscard]] std::string handle_analyze(const json::Value& params);
  [[nodiscard]] std::string handle_query(const json::Value& params);
  [[nodiscard]] std::string handle_explain(const json::Value& params);
  [[nodiscard]] std::string handle_status();

  /// Looks up (optionally creating) the project's warm state.
  [[nodiscard]] std::shared_ptr<serve::ProjectState> project(const std::string& name,
                                                             bool create);
  /// Evicts least-recently-used projects until the resident total fits the
  /// budget; `keep` (the project just used) is never evicted.
  void enforce_budget(const std::string& keep);

  DaemonOptions opts_;
  std::size_t max_inflight_ = 0;  // opts_.max_inflight resolved (0 = pool size)
  // Atomic because stop() invalidates it while accept_loop() is still
  // passing it to accept(); the loop exits on the resulting error.
  std::atomic<int> listen_fd_{-1};
  bool owns_socket_file_ = false;  // bind succeeded; stop() may unlink the path
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};  // refuse new work, finish in-flight

  std::mutex conn_mu_;       // guards conn_fds_
  std::set<int> conn_fds_;   // open client connections (severed on stop)

  std::mutex projects_mu_;   // guards projects_
  std::map<std::string, std::shared_ptr<serve::ProjectState>> projects_;

  std::mutex done_mu_;       // wait()/shutdown handshake
  std::condition_variable done_cv_;
  bool done_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> request_errors_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> shed_requests_{0};     // answered `overloaded`/`shutting_down`
  std::atomic<std::uint64_t> shed_connections_{0};  // closed at accept (queue full)
  std::atomic<std::uint64_t> too_large_{0};         // oversized request lines
  std::atomic<std::uint64_t> deadline_expired_{0};  // units demoted by a deadline

  /// Connections accepted but not yet picked up by a worker (the bounded
  /// queue); requests currently inside handle_line (what the admission
  /// budget counts — dropped before the response is written, so a client
  /// that pipelines its next request after reading a reply never races the
  /// decrement); responses currently being written (the drain waits on
  /// busy_ and writing_ both, so finished work still reaches its client).
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> busy_{0};
  std::atomic<std::size_t> writing_{0};

  /// Last member on purpose: destroyed first, so its workers (connection
  /// handlers touching projects_ and the counters) drain before anything
  /// they use goes away.
  serve::ThreadPool pool_;
};

}  // namespace ara::daemon
