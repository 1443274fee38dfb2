// End-to-end daemon tests over a real Unix socket: the full analyze /
// query / explain / status / shutdown protocol, per-request isolation (a
// malformed or crashing request answers ok:false and the daemon keeps
// serving), warm incremental re-analysis across requests, concurrent
// clients, and the LRU memory budget.
#include "daemon/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"
#include "daemon/rpc.hpp"
#include "obs/provenance.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "rgn/region_row.hpp"
#include "serve/engine.hpp"
#include "support/faultinject.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

namespace ara::daemon {
namespace {

namespace fs = std::filesystem;

/// A short-path socket in the system temp dir (sun_path is ~108 bytes).
std::string temp_socket(const char* tag) {
  return (fs::temp_directory_path() /
          (std::string("ara_") + tag + "_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

std::string c_unit(const std::string& array, const std::string& proc,
                   const std::string& extra_stmt = "") {
  std::string text;
  text += "double " + array + "[16][16];\n";
  text += "void " + proc + "(void) {\n  int i, j;\n";
  text += "  for (i = 0; i < 16; i++) {\n    for (j = 0; j < 16; j++) {\n";
  text += "      " + array + "[i][j] = i + j;\n    }\n  }\n";
  if (!extra_stmt.empty()) text += "  " + extra_stmt + "\n";
  text += "}\n";
  return text;
}

/// analyze params for a two-unit project where `caller` calls `callee`.
std::string two_unit_params(const std::string& project, bool edited = false) {
  std::ostringstream os;
  os << "{\"project\":\"" << project << "\",\"sources\":["
     << "{\"name\":\"callee.c\",\"lang\":\"c\",\"text\":\""
     << json::escape(c_unit("a", "callee") + (edited ? "/* v2 */\n" : "")) << "\"},"
     << "{\"name\":\"caller.c\",\"lang\":\"c\",\"text\":\""
     << json::escape(c_unit("b", "caller", "callee();")) << "\"}]}";
  return os.str();
}

/// A deliberately bulky project (one unit, many procedures) so a handful
/// of them overflows a 1 MiB resident budget in the LRU test.
std::string bulky_params(const std::string& project) {
  std::string text;
  for (int p = 0; p < 80; ++p) {
    const std::string n = std::to_string(p);
    text += c_unit("arr" + n, "proc" + n);
  }
  std::ostringstream os;
  os << "{\"project\":\"" << project << "\",\"sources\":["
     << "{\"name\":\"bulk.c\",\"lang\":\"c\",\"text\":\"" << json::escape(text)
     << "\"}]}";
  return os.str();
}

std::uint64_t num(const json::Value& v, std::string_view key) {
  const json::Value* m = v.find(key);
  return (m != nullptr && m->is_number()) ? static_cast<std::uint64_t>(m->number) : 0;
}

struct RunningDaemon {
  explicit RunningDaemon(DaemonOptions opts) : server(std::move(opts)) {
    std::string error;
    started = server.start(&error);
    EXPECT_TRUE(started) << error;
  }
  ~RunningDaemon() { server.stop(); }
  DaemonServer server;
  bool started = false;
};

TEST(Daemon, AnalyzeQueryExplainStatusShutdown) {
  RunningDaemon d(DaemonOptions{temp_socket("proto"), 2, 64, 1});
  ASSERT_TRUE(d.started);

  DaemonClient client;
  std::string error;
  ASSERT_TRUE(client.connect(d.server.socket_path(), &error)) << error;

  auto analyzed = client.call("analyze", two_unit_params("demo"));
  ASSERT_TRUE(analyzed.has_value());
  ASSERT_TRUE(analyzed->ok) << analyzed->error;
  EXPECT_EQ(num(analyzed->result, "generation"), 1u);
  EXPECT_EQ(num(analyzed->result, "units"), 2u);
  EXPECT_GT(num(analyzed->result, "rows"), 0u);

  auto table = client.call("query", R"({"project":"demo"})");
  ASSERT_TRUE(table.has_value() && table->ok) << (table ? table->error : "no reply");
  const json::Value* text = table->result.find("text");
  ASSERT_NE(text, nullptr);
  EXPECT_NE(text->string.find("Scope"), std::string::npos);
  EXPECT_NE(text->string.find("DEF"), std::string::npos);

  auto rgn = client.call("query", R"({"project":"demo","artifact":"rgn"})");
  ASSERT_TRUE(rgn.has_value() && rgn->ok);
  EXPECT_EQ(rgn->result.find("text")->string.rfind("Scope,Array,", 0), 0u);

  auto explain = client.call("explain", R"({"project":"demo"})");
  ASSERT_TRUE(explain.has_value() && explain->ok);
  EXPECT_NE(explain->result.find("text")->string.find("explain:"), std::string::npos);

  auto status = client.call("status", "{}");
  ASSERT_TRUE(status.has_value() && status->ok);
  EXPECT_EQ(status->result.find("schema")->string, kRpcSchema);
  ASSERT_TRUE(status->result.find("projects")->is_array());
  EXPECT_EQ(status->result.find("projects")->array.size(), 1u);

  auto bye = client.call("shutdown", "{}");
  ASSERT_TRUE(bye.has_value() && bye->ok);
  d.server.wait();  // returns because shutdown flipped the flag
}

TEST(Daemon, WarmStateMakesSecondAnalyzeResident) {
  RunningDaemon d(DaemonOptions{temp_socket("warm"), 2, 64, 1});
  ASSERT_TRUE(d.started);
  DaemonClient client;
  ASSERT_TRUE(client.connect(d.server.socket_path(), nullptr));

  auto cold = client.call("analyze", two_unit_params("warm"));
  ASSERT_TRUE(cold.has_value() && cold->ok);
  EXPECT_EQ(num(cold->result, "cache_misses"), 2u);

  auto warm = client.call("analyze", two_unit_params("warm"));
  ASSERT_TRUE(warm.has_value() && warm->ok);
  EXPECT_EQ(num(warm->result, "cache_misses"), 0u);
  EXPECT_EQ(num(warm->result, "resident_hits"), 2u);

  // Editing the callee re-analyzes the callee alone: the caller's summary
  // depends only on its own unit and stays resident.
  auto inc = client.call("analyze", two_unit_params("warm", /*edited=*/true));
  ASSERT_TRUE(inc.has_value() && inc->ok);
  EXPECT_EQ(num(inc->result, "cache_misses"), 1u);
  EXPECT_EQ(num(inc->result, "resident_hits"), 1u);
  EXPECT_EQ(num(inc->result, "invalidated_units"), 0u);
}

TEST(Daemon, RequestsLeaveNoSpansInTheProcessTimeline) {
  // arad keeps telemetry on for its whole life, so a request's spans go to
  // a timeline of its own, dropped with the reply; the unit tasks of a
  // `jobs` 4 analyze record on pool workers into that same timeline.
  obs::set_enabled(true);
  obs::Timeline::instance().clear();
  {
    DaemonServer server(DaemonOptions{temp_socket("spans"), 2, 64, 1});
    for (int i = 0; i < 4; ++i) {
      std::string params = two_unit_params("spans", /*edited=*/i % 2 == 1);
      params.insert(params.size() - 1, ",\"jobs\":4");
      const std::string analyzed =
          server.handle_line(R"({"id":1,"method":"analyze","params":)" + params + "}");
      EXPECT_NE(analyzed.find("\"ok\":true"), std::string::npos) << analyzed;
      const std::string queried = server.handle_line(
          R"({"id":2,"method":"query","params":{"project":"spans","artifact":"rgn"}})");
      EXPECT_NE(queried.find("\"ok\":true"), std::string::npos) << queried;
    }
  }
  obs::set_enabled(false);
  EXPECT_TRUE(obs::Timeline::instance().empty());
}

TEST(Daemon, MalformedAndCrashingRequestsDoNotKillTheServer) {
  RunningDaemon d(DaemonOptions{temp_socket("isolate"), 2, 64, 1});
  ASSERT_TRUE(d.started);

  // Straight through the request handler: garbage framing, unknown
  // methods, bad params — each answers ok:false with the request's id.
  EXPECT_NE(d.server.handle_line("this is not json").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(d.server.handle_line(R"({"id":5,"method":"frobnicate"})")
                .find("\"id\":5,\"ok\":false"),
            std::string::npos);
  EXPECT_NE(
      d.server.handle_line(R"({"id":6,"method":"analyze","params":{"sources":[]}})")
          .find("\"ok\":false"),
      std::string::npos);
  EXPECT_NE(d.server.handle_line(R"({"id":7,"method":"query","params":{"project":"nope"}})")
                .find("\"ok\":false"),
            std::string::npos);
  // A unit whose compile fails is NOT a request error: the analyze request
  // itself succeeds and the result reports the failed unit — the daemon's
  // answer to broken code is structured, not an exception.
  const std::string broken = d.server.handle_line(
      R"({"id":8,"method":"analyze","params":{"project":"bad","sources":[{"name":"x.c","lang":"c","text":"void f( {"}]}})");
  EXPECT_NE(broken.find("\"id\":8,\"ok\":true"), std::string::npos);
  EXPECT_NE(broken.find("\"failed_units\":1"), std::string::npos);

  // After all of that, a clean request still works end to end.
  DaemonClient client;
  ASSERT_TRUE(client.connect(d.server.socket_path(), nullptr));
  auto good = client.call("analyze", two_unit_params("still-alive"));
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(good->ok) << good->error;
  EXPECT_EQ(d.server.request_errors(), 4u);
}

TEST(Daemon, ConcurrentClientsOnDistinctProjects) {
  RunningDaemon d(DaemonOptions{temp_socket("conc"), 4, 256, 1});
  ASSERT_TRUE(d.started);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::vector<int> rows(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      DaemonClient client;
      if (!client.connect(d.server.socket_path(), nullptr)) return;
      const std::string project = std::string("p") + std::to_string(c);
      for (int round = 0; round < 3; ++round) {
        auto reply = client.call("analyze", two_unit_params(project));
        if (!reply.has_value() || !reply->ok) return;
        rows[c] = static_cast<int>(num(reply->result, "rows"));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_GT(rows[c], 0) << "client " << c << " failed";
  }
  EXPECT_EQ(d.server.requests(), static_cast<std::uint64_t>(kClients * 3));
}

TEST(Daemon, MemoryBudgetEvictsLeastRecentlyUsedProject) {
  // 1 MiB budget (0 means unbounded; the project just analyzed is never
  // evicted), with projects bulky enough that a few overflow it.
  RunningDaemon d(DaemonOptions{temp_socket("lru"), 2, 1, 1});
  ASSERT_TRUE(d.started);
  DaemonClient client;
  ASSERT_TRUE(client.connect(d.server.socket_path(), nullptr));

  constexpr int kProjects = 8;
  for (int p = 0; p < kProjects; ++p) {
    auto reply = client.call("analyze", bulky_params("proj" + std::to_string(p)));
    ASSERT_TRUE(reply.has_value() && reply->ok);
  }
  EXPECT_GT(d.server.evictions(), 0u);

  auto status = client.call("status", "{}");
  ASSERT_TRUE(status.has_value() && status->ok);
  const json::Value* projects = status->result.find("projects");
  ASSERT_NE(projects, nullptr);
  EXPECT_LT(projects->array.size(), static_cast<std::size_t>(kProjects));

  // An evicted project's query errors cleanly; re-analyzing it recreates
  // the state from scratch.
  auto gone = client.call("query", R"({"project":"proj0"})");
  ASSERT_TRUE(gone.has_value());
  EXPECT_FALSE(gone->ok);
  auto back = client.call("analyze", bulky_params("proj0"));
  ASSERT_TRUE(back.has_value() && back->ok);
  EXPECT_EQ(num(back->result, "generation"), 1u);  // fresh state
}

TEST(Daemon, RefusesASecondDaemonOnALiveSocket) {
  const std::string path = temp_socket("dup");
  RunningDaemon first(DaemonOptions{path, 2, 64, 1});
  ASSERT_TRUE(first.started);

  {
    DaemonServer second(DaemonOptions{path, 2, 64, 1});
    std::string error;
    EXPECT_FALSE(second.start(&error));
    EXPECT_NE(error.find("already listening"), std::string::npos);
  }

  // The refused server's teardown must not unlink the live daemon's
  // socket: the first daemon still owns the path and still answers.
  EXPECT_TRUE(std::filesystem::exists(path));
  DaemonClient client;
  std::string error;
  ASSERT_TRUE(client.connect(path, &error)) << error;
  const auto reply = client.call("status", "{}");
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
}

// --- Overload-and-failure survival (ISSUE 10) ---

const json::Value* overload_section(const json::Value& status_result) {
  const json::Value* o = status_result.find("overload");
  return (o != nullptr && o->is_object()) ? o : nullptr;
}

TEST(Daemon, OversizedRequestLineAnswersTooLargeAndSevers) {
  DaemonOptions opts{temp_socket("toolarge"), 2, 64, 1};
  opts.max_request_bytes = 256;
  RunningDaemon d(std::move(opts));
  ASSERT_TRUE(d.started);

  DaemonClient client;
  ASSERT_TRUE(client.connect(d.server.socket_path(), nullptr));
  // two_unit_params is well over 256 bytes: the daemon must refuse to even
  // parse it, answer with the structured code, and drop the connection
  // (framing is unrecoverable once a line is oversized).
  auto reply = client.call("analyze", two_unit_params("big"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->ok);
  EXPECT_EQ(reply->code, "too_large");
  EXPECT_EQ(d.server.too_large_requests(), 1u);
  EXPECT_FALSE(client.call("status", "{}").has_value());  // severed

  // A trickled oversized *partial* line (no newline yet) is cut off too —
  // the buffer must not grow without bound waiting for the terminator.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, d.server.socket_path().c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string blob(512, 'x');  // > max_request_bytes, never a newline
  ASSERT_EQ(::write(fd, blob.data(), blob.size()), static_cast<ssize_t>(blob.size()));
  char buf[512];
  std::string got;
  for (ssize_t n = ::read(fd, buf, sizeof(buf)); n > 0; n = ::read(fd, buf, sizeof(buf))) {
    got.append(buf, static_cast<std::size_t>(n));  // ends with EOF: connection closed
  }
  EXPECT_NE(got.find("\"code\":\"too_large\""), std::string::npos);
  ::close(fd);

  // Within budget still works: the cap rejects requests, not the daemon.
  DaemonClient ok_client;
  ASSERT_TRUE(ok_client.connect(d.server.socket_path(), nullptr));
  auto status = ok_client.call("status", "{}");
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok);
}

TEST(Daemon, ShedsPastTheInflightBudgetAndRetriedAnalyzeIsByteIdentical) {
  DaemonOptions opts{temp_socket("shed"), 4, 256, 1};
  opts.max_inflight = 1;
  opts.retry_after_ms = 25;
  RunningDaemon d(std::move(opts));
  ASSERT_TRUE(d.started);

  // The unshed reference first, with no faults armed.
  DaemonClient ref;
  ASSERT_TRUE(ref.connect(d.server.socket_path(), nullptr));
  ASSERT_TRUE(ref.call("analyze", two_unit_params("unshed"))->ok);
  const std::string unshed_rgn =
      ref.call("query", R"({"project":"unshed","artifact":"rgn"})")->result.find("text")->string;
  ASSERT_FALSE(unshed_rgn.empty());

  // Every handled request now dwells 250 ms inside handle_line, so a second
  // concurrent request reliably finds busy_ over the budget of 1.
  ASSERT_TRUE(fi::configure("daemon.handle=delay:250", nullptr));
  std::thread holder([&] {
    DaemonClient a;
    if (!a.connect(d.server.socket_path(), nullptr)) return;
    auto r = a.call("analyze", two_unit_params("held"));
    EXPECT_TRUE(r.has_value() && r->ok)
        << (r.has_value() ? "error=" + r->error + " code=" + r->code : "no reply");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  DaemonClient b;
  ASSERT_TRUE(b.connect(d.server.socket_path(), nullptr));
  auto shed = b.call("analyze", two_unit_params("shed"));
  ASSERT_TRUE(shed.has_value());
  EXPECT_FALSE(shed->ok);
  EXPECT_EQ(shed->code, "overloaded");
  EXPECT_EQ(shed->retry_after_ms, 25);
  EXPECT_TRUE(shed->transient());
  EXPECT_GE(d.server.shed_requests(), 1u);

  // The bounded-backoff retry gets through once the held request drains.
  RetryOptions retry;
  retry.backoff.attempts = 20;
  retry.backoff.initial = std::chrono::milliseconds(30);
  auto retried = b.call_retry("analyze", two_unit_params("shed"), retry);
  holder.join();
  fi::disarm();
  ASSERT_TRUE(retried.has_value());
  EXPECT_TRUE(retried->ok) << retried->error;

  // Replay determinism: a shed-then-retried analyze and an unshed one of
  // the same sources produce byte-identical artifacts.
  const std::string shed_rgn =
      b.call("query", R"({"project":"shed","artifact":"rgn"})")->result.find("text")->string;
  EXPECT_EQ(shed_rgn, unshed_rgn);

  // Shedding is observable in status, not silent.
  auto status = b.call("status", "{}");
  ASSERT_TRUE(status.has_value() && status->ok);
  const json::Value* overload = overload_section(status->result);
  ASSERT_NE(overload, nullptr);
  EXPECT_EQ(num(*overload, "max_inflight"), 1u);
  EXPECT_GE(num(*overload, "shed_requests"), 1u);
}

TEST(Daemon, DeadlineDemotesOverBudgetUnitsToStructuredTimeouts) {
  RunningDaemon d(DaemonOptions{temp_socket("deadline"), 2, 256, 1});
  ASSERT_TRUE(d.started);
  DaemonClient client;
  ASSERT_TRUE(client.connect(d.server.socket_path(), nullptr));

  // Pin the unit over its 1 ms budget: the unit.analyze failpoint sleeps
  // inside the LimitScope, so the per-token check_deadline() watchdog is
  // guaranteed to trip regardless of how warm the allocator is. The unit is
  // demoted to a structured Timeout failure — the analyze request itself
  // still answers ok:true.
  ASSERT_TRUE(fi::configure("unit.analyze=delay:25", nullptr));
  std::string params = bulky_params("slow");
  params.insert(params.size() - 1, ",\"deadline_ms\":1");
  auto reply = client.call("analyze", params);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok) << reply->error;
  EXPECT_GE(num(reply->result, "failed_units"), 1u);
  EXPECT_GE(num(reply->result, "timeout_units"), 1u);
  EXPECT_GE(d.server.deadline_expired(), 1u);

  // Without the deadline the same (still delayed) unit analyzes clean: the
  // demotion was the deadline's doing, not the unit's.
  auto ok = client.call("analyze", bulky_params("fast"));
  fi::disarm();
  ASSERT_TRUE(ok.has_value() && ok->ok);
  EXPECT_EQ(num(ok->result, "failed_units"), 0u);
  EXPECT_EQ(num(ok->result, "timeout_units"), 0u);
}

TEST(Daemon, DefaultDeadlineAppliesWhenTheRequestCarriesNone) {
  DaemonOptions opts{temp_socket("defdl"), 2, 256, 1};
  opts.default_deadline_ms = 1;
  RunningDaemon d(std::move(opts));
  ASSERT_TRUE(d.started);
  DaemonClient client;
  ASSERT_TRUE(client.connect(d.server.socket_path(), nullptr));
  // Same trick as above: sleep past the 1 ms default inside the unit's
  // LimitScope so the watchdog trips deterministically.
  ASSERT_TRUE(fi::configure("unit.analyze=delay:25", nullptr));
  auto reply = client.call("analyze", bulky_params("slow"));
  fi::disarm();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok) << reply->error;
  EXPECT_GE(num(reply->result, "timeout_units"), 1u);
}

TEST(Daemon, StatusAndOtherProjectsNeverWaitOnASlowAnalyze) {
  // Project "idle" has a published snapshot; then "slow" analyzes 20 units
  // that each sleep 100 ms (2 s in all). A status sent 200 ms in and a
  // query on "idle" sent 100 ms later must answer at once: the project
  // sizes that status and the memory budget read are recorded when a
  // snapshot is published, never computed under a running analysis.
  RunningDaemon d(DaemonOptions{temp_socket("stall"), 4, 512, 1});
  ASSERT_TRUE(d.started);
  DaemonClient setup;
  ASSERT_TRUE(setup.connect(d.server.socket_path(), nullptr));
  ASSERT_TRUE(setup.call("analyze", two_unit_params("idle"))->ok);

  std::ostringstream slow;
  slow << "{\"project\":\"slow\",\"sources\":[";
  for (int u = 0; u < 20; ++u) {
    const std::string n = std::to_string(u);
    slow << (u == 0 ? "" : ",") << "{\"name\":\"u" << n << ".c\",\"lang\":\"c\",\"text\":\""
         << json::escape(c_unit("a" + n, "p" + n)) << "\"}";
  }
  slow << "]}";

  struct Disarm {
    ~Disarm() { fi::disarm(); }
  } disarm;
  ASSERT_TRUE(fi::configure("unit.analyze=delay:100", nullptr));
  std::thread analyzer([&] {
    DaemonClient c;
    ASSERT_TRUE(c.connect(d.server.socket_path(), nullptr));
    auto r = c.call("analyze", slow.str());
    EXPECT_TRUE(r.has_value() && r->ok);
  });
  // Milliseconds one call on a fresh connection takes to answer ok.
  auto timed = [&](const char* method, const std::string& params) -> long {
    DaemonClient c;
    if (!c.connect(d.server.socket_path(), nullptr)) return -1;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = c.call(method, params);
    if (!r.has_value() || !r->ok) return -1;
    return static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
  };
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  long status_ms = -1;
  std::thread status([&] { status_ms = timed("status", "{}"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const long query_ms = timed("query", R"({"project":"idle"})");
  status.join();
  analyzer.join();

  EXPECT_GE(status_ms, 0);
  EXPECT_LT(status_ms, 500) << "status waited on the analysis";
  EXPECT_GE(query_ms, 0);
  EXPECT_LT(query_ms, 500) << "a query on an idle project waited on another's analysis";
}

TEST(Daemon, GracefulDrainRefusesNewWorkAndAnswersStatus) {
  RunningDaemon d(DaemonOptions{temp_socket("drain"), 2, 64, 1});
  ASSERT_TRUE(d.started);
  DaemonClient client;
  ASSERT_TRUE(client.connect(d.server.socket_path(), nullptr));
  ASSERT_TRUE(client.call("analyze", two_unit_params("work"))->ok);

  auto bye = client.call("shutdown", R"({"drain":true})");
  ASSERT_TRUE(bye.has_value() && bye->ok);
  EXPECT_NE(bye->result.find("drain"), nullptr);
  d.server.wait();
  EXPECT_TRUE(d.server.draining());

  // Draining: new work is shed with the structured code; status (how the
  // drain is observed) still answers.
  const std::string refused = d.server.handle_line(
      R"({"id":9,"method":"query","params":{"project":"work"}})");
  EXPECT_NE(refused.find("\"code\":\"shutting_down\""), std::string::npos);
  EXPECT_NE(refused.find("\"retry_after_ms\""), std::string::npos);
  const std::string status = d.server.handle_line(R"({"id":10,"method":"status"})");
  EXPECT_NE(status.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(status.find("\"draining\":true"), std::string::npos);

  d.server.stop();  // drain-wait: no in-flight work left, returns promptly
}

TEST(Daemon, ClientReconnectsAcrossADaemonRestart) {
  const std::string path = temp_socket("restart");
  auto first = std::make_unique<RunningDaemon>(DaemonOptions{path, 2, 64, 1});
  ASSERT_TRUE(first->started);

  DaemonClient client;
  ASSERT_TRUE(client.connect(path, nullptr));
  ASSERT_TRUE(client.call("status", "{}")->ok);

  first.reset();  // daemon gone: the client's connection is severed

  RunningDaemon second(DaemonOptions{path, 2, 64, 1});
  ASSERT_TRUE(second.started);

  RetryOptions retry;
  retry.backoff.attempts = 10;
  retry.backoff.initial = std::chrono::milliseconds(20);
  auto reply = client.call_retry("status", "{}", retry);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_GE(client.retries(), 1u);  // at least one reconnect happened
}

TEST(Daemon, AcceptFailpointLosesTheConnectionNotTheListener) {
  RunningDaemon d(DaemonOptions{temp_socket("acceptfi"), 2, 64, 1});
  ASSERT_TRUE(d.started);

  ASSERT_TRUE(fi::configure("daemon.accept=io*1", nullptr));  // exactly one
  DaemonClient doomed;
  ASSERT_TRUE(doomed.connect(d.server.socket_path(), nullptr));
  EXPECT_FALSE(doomed.call("status", "{}").has_value());  // fd closed at accept
  fi::disarm();

  DaemonClient fine;
  ASSERT_TRUE(fine.connect(d.server.socket_path(), nullptr));
  auto reply = fine.call("status", "{}");
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
}

TEST(Daemon, ReclaimsAStaleSocketFile) {
  // What a crashed daemon leaves behind: a bound socket file with nobody
  // listening. bind() alone would fail EADDRINUSE forever; the connect
  // probe sees no answer and reclaims the path.
  const std::string path = temp_socket("stale");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);  // no listen(), no unlink: the file is stale
  ASSERT_TRUE(fs::exists(path));

  RunningDaemon fresh(DaemonOptions{path, 2, 64, 1});
  EXPECT_TRUE(fresh.started);
}

/// analyze params for `sources`, every unit Fortran or C as its language.
std::string params_of(const std::string& project, const std::vector<serve::SourceBuffer>& sources) {
  std::ostringstream os;
  os << "{\"project\":\"" << project << "\",\"sources\":[";
  for (std::size_t i = 0; i < sources.size(); ++i) {
    os << (i == 0 ? "" : ",") << "{\"name\":\"" << json::escape(sources[i].name)
       << "\",\"lang\":\"" << (sources[i].lang == Language::C ? "c" : "fortran")
       << "\",\"text\":\"" << json::escape(sources[i].text) << "\"}";
  }
  os << "]}";
  return os.str();
}

/// Every unit of the NAS-LU workload, in file-name order.
std::vector<serve::SourceBuffer> lu_sources() {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
    files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<serve::SourceBuffer> sources;
  for (const fs::path& f : files) {
    std::optional<serve::SourceBuffer> src = serve::read_source(f, nullptr);
    EXPECT_TRUE(src.has_value()) << f;
    if (src) sources.push_back(std::move(*src));
  }
  return sources;
}

/// analyze params for the NAS-LU workload, plus `extra` as one more
/// Fortran unit when it is not empty.
std::string lu_params(const std::string& project, const std::string& extra = "") {
  std::vector<serve::SourceBuffer> sources = lu_sources();
  if (!extra.empty()) sources.push_back({"extra.f", extra, Language::Fortran});
  return params_of(project, sources);
}

/// The result object of one request sent straight through the handler.
json::Value call_direct(DaemonServer& server, const std::string& method,
                        const std::string& params) {
  const std::string reply =
      server.handle_line("{\"id\":1,\"method\":\"" + method + "\",\"params\":" + params + "}");
  const std::optional<json::Value> parsed = json::parse(reply);
  const json::Value* ok = parsed ? parsed->find("ok") : nullptr;
  EXPECT_TRUE(ok != nullptr && ok->boolean) << reply;
  const json::Value* result = parsed ? parsed->find("result") : nullptr;
  return result != nullptr ? *result : json::Value{};
}

/// The rows of the project's current snapshot, read back from its `.rgn`.
std::vector<rgn::RegionRow> snapshot_rows(DaemonServer& server, const std::string& project) {
  const json::Value rgn =
      call_direct(server, "query", "{\"project\":\"" + project + "\",\"artifact\":\"rgn\"}");
  const json::Value* text = rgn.find("text");
  std::vector<rgn::RegionRow> rows;
  std::string error;
  EXPECT_TRUE(text != nullptr && rgn::parse_rgn(text->string, rows, &error)) << error;
  return rows;
}

/// What `query` for one array must answer: the table of the rows whose
/// lowercase name matches, in row order.
std::string scanned_table(const std::vector<rgn::RegionRow>& rows, const std::string& array) {
  std::vector<rgn::RegionRow> matching;
  for (const rgn::RegionRow& r : rows) {
    if (to_lower(r.array) == to_lower(array)) matching.push_back(r);
  }
  return rgn::render_table(matching);
}

std::string array_query(const std::string& project, const std::string& array) {
  return "{\"project\":\"" + project + "\",\"array\":\"" + json::escape(array) + "\"}";
}

TEST(Daemon, QueryByArrayMatchesTheRowScan) {
  RunningDaemon d(DaemonOptions{temp_socket("qarray"), 4, 512, 1});
  ASSERT_TRUE(d.started);
  ASSERT_EQ(num(call_direct(d.server, "analyze", lu_params("lu")), "generation"), 1u);
  const std::vector<rgn::RegionRow> first = snapshot_rows(d.server, "lu");
  ASSERT_FALSE(first.empty());

  std::set<std::string> arrays;
  for (const rgn::RegionRow& r : first) arrays.insert(to_lower(r.array));
  for (const std::string& array : arrays) {
    const json::Value reply = call_direct(d.server, "query", array_query("lu", to_upper(array)));
    const json::Value* text = reply.find("text");
    ASSERT_NE(text, nullptr);
    EXPECT_EQ(text->string, scanned_table(first, array)) << array;
  }
  const json::Value none = call_direct(d.server, "query", array_query("lu", "no_such_array"));
  ASSERT_NE(none.find("text"), nullptr);
  EXPECT_EQ(none.find("text")->string, rgn::render_table({}));

  // A second analyze adds a unit with a local `u` (LU's `u` is global) and
  // a new array, and is slowed down; a query while it runs answers from
  // the snapshot it holds, the first one.
  const std::string extra =
      "      subroutine zextra\n"
      "      double precision u(4), zq(3)\n"
      "      integer i\n"
      "      do i = 1, 4\n"
      "         u(i) = 0.0d0\n"
      "      end do\n"
      "      zq(1) = u(2)\n"
      "      end\n";
  struct Disarm {
    ~Disarm() { fi::disarm(); }
  } disarm;
  ASSERT_TRUE(fi::configure("unit.analyze=delay:1000", nullptr));
  std::thread analyzer([&] {
    EXPECT_EQ(num(call_direct(d.server, "analyze", lu_params("lu", extra)), "generation"), 2u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const json::Value held = call_direct(d.server, "query", array_query("lu", "U"));
  analyzer.join();
  fi::disarm();
  EXPECT_EQ(num(held, "generation"), 1u);
  ASSERT_NE(held.find("text"), nullptr);
  EXPECT_EQ(held.find("text")->string, scanned_table(first, "u"));

  const std::vector<rgn::RegionRow> second = snapshot_rows(d.server, "lu");
  ASSERT_NE(scanned_table(second, "u"), scanned_table(first, "u"));
  for (const std::string array : {"U", "zq", "frct"}) {
    const json::Value reply = call_direct(d.server, "query", array_query("lu", array));
    EXPECT_EQ(num(reply, "generation"), 2u);
    ASSERT_NE(reply.find("text"), nullptr);
    EXPECT_EQ(reply.find("text")->string, scanned_table(second, array)) << array;
  }
}

/// One C unit of `procs` procedures over as many global arrays with
/// 250-character names: about 2.2 MB of source whose `.rgn` is about 2.2 MB.
serve::SourceBuffer bulky_unit(int procs = 160) {
  const std::string pad(250, 'x');
  const auto array = [&](int p) {
    std::string n = std::to_string(p);
    return "bulk_" + pad + "_" + std::string(3 - n.size(), '0') + n;
  };
  std::string text;
  for (int p = 0; p < procs; ++p) text += "double " + array(p) + "[64][64];\n";
  for (int p = 0; p < procs; ++p) {
    text += "void proc_" + std::to_string(p) + "(void) {\n  int i, j;\n";
    for (int q = 0; q < 40; ++q) {
      text += "  for (i = " + std::to_string(q % 7) + "; i < 64; i++) { for (j = 0; j < " +
              std::to_string(64 - q % 5) + "; j++) { " + array((p + q) % procs) +
              "[i][j] = i + j; } }\n";
    }
    text += "}\n";
  }
  return {"bulk.c", text, Language::C};
}

/// A raw connection to a daemon's socket, for tests that frame bytes
/// themselves; -1 on failure.
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Reads from `fd` until `count` whole lines arrived or the peer closed.
std::vector<std::string> read_lines(int fd, std::size_t count) {
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[65536];
  while (lines.size() < count) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      lines.push_back(buffer.substr(0, nl + 1));
      buffer.erase(0, nl + 1);
      continue;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return lines;
}

TEST(Daemon, MultiMegabyteRequestLineInPiecesAndASecondRequestInOneWrite) {
  const std::string analyze =
      "{\"id\":1,\"method\":\"analyze\",\"params\":" + params_of("big", {bulky_unit()}) + "}";
  ASSERT_GT(analyze.size(), 2u * 1024 * 1024);
  const std::string query =
      R"({"id":2,"method":"query","params":{"project":"big","artifact":"rgn"}})";

  // What each line must answer: the same lines straight through the handler
  // of a daemon of its own.
  DaemonServer reference(DaemonOptions{temp_socket("framing_ref"), 2, 512, 1});
  const std::string want_analyze = reference.handle_line(analyze);
  const std::string want_query = reference.handle_line(query);
  ASSERT_NE(want_analyze.find("\"ok\":true"), std::string::npos) << want_analyze;
  ASSERT_NE(want_query.find("\"ok\":true"), std::string::npos);

  RunningDaemon d(DaemonOptions{temp_socket("framing"), 2, 512, 1});
  ASSERT_TRUE(d.started);
  const int fd = raw_connect(d.server.socket_path());
  ASSERT_GE(fd, 0);
  // The analyze line goes out in pieces of 1, 4095, 4097 and 65537 bytes in
  // turn; the last piece carries its tail, its newline and the whole query.
  const std::string bytes = analyze + "\n" + query + "\n";
  const std::size_t tail = analyze.size() - 1000;
  const std::size_t pieces[] = {1, 4095, 4097, 65537};
  std::size_t off = 0;
  for (std::size_t i = 0; off < tail; ++i) {
    const std::size_t len = std::min(pieces[i % 4], tail - off);
    ASSERT_EQ(::write(fd, bytes.data() + off, len), static_cast<ssize_t>(len));
    off += len;
  }
  ASSERT_EQ(::write(fd, bytes.data() + off, bytes.size() - off),
            static_cast<ssize_t>(bytes.size() - off));
  const std::vector<std::string> replies = read_lines(fd, 2);
  ::close(fd);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], want_analyze);
  EXPECT_EQ(replies[1], want_query);
}

TEST(Daemon, RgnAndProvenanceArtifactsEqualAColdRun) {
  DaemonServer server(DaemonOptions{temp_socket("artifacts"), 2, 512, 1});
  std::vector<serve::SourceBuffer> sources = lu_sources();
  ASSERT_EQ(sources.size(), 20u);
  const std::string rgn_query = R"({"project":"lu","artifact":"rgn"})";
  const std::string prov_query = R"({"project":"lu","artifact":"provenance"})";
  for (const char* edited : {"", "exact.f", "rhs.f"}) {
    SCOPED_TRACE(edited);
    for (serve::SourceBuffer& src : sources) {
      if (src.name == edited) src.text += "\n! edited\n";
    }
    ASSERT_TRUE(call_direct(server, "analyze", params_of("lu", sources)).find("rows") != nullptr);
    serve::BatchResult cold = serve::run_batch(sources, serve::BatchOptions{}, "lu");
    ASSERT_TRUE(cold.ok);
    obs::sort_provenance(cold.provenance);
    // Twice each: a second request for an artifact answers the same bytes.
    for (int round = 0; round < 2; ++round) {
      const json::Value rgn = call_direct(server, "query", rgn_query);
      ASSERT_NE(rgn.find("text"), nullptr);
      EXPECT_EQ(rgn.find("text")->string, rgn::write_rgn(cold.link.rows));
      const json::Value prov = call_direct(server, "query", prov_query);
      ASSERT_NE(prov.find("text"), nullptr);
      EXPECT_EQ(prov.find("text")->string, obs::write_provenance_jsonl(cold.provenance, "lu"));
    }
  }
}

TEST(DaemonClientTest, MultiMegabyteRgnReplyRoundTrips) {
  RunningDaemon d(DaemonOptions{temp_socket("bigreply"), 2, 512, 1});
  ASSERT_TRUE(d.started);
  DaemonClient client;
  ASSERT_TRUE(client.connect(d.server.socket_path(), nullptr));
  const std::vector<serve::SourceBuffer> sources = {bulky_unit()};
  auto analyzed = client.call("analyze", params_of("bulk", sources));
  ASSERT_TRUE(analyzed.has_value() && analyzed->ok) << (analyzed ? analyzed->error : "");

  const serve::BatchResult cold = serve::run_batch(sources, serve::BatchOptions{}, "bulk");
  ASSERT_TRUE(cold.ok);
  const std::string want = rgn::write_rgn(cold.link.rows);
  ASSERT_GT(want.size(), 2u * 1024 * 1024);
  for (int round = 0; round < 2; ++round) {
    auto rgn = client.call("query", R"({"project":"bulk","artifact":"rgn"})");
    ASSERT_TRUE(rgn.has_value() && rgn->ok);
    ASSERT_NE(rgn->result.find("text"), nullptr);
    EXPECT_EQ(rgn->result.find("text")->string, want);
  }
  auto status = client.call("status", "{}");
  ASSERT_TRUE(status.has_value() && status->ok);
}

TEST(DaemonClientTest, ReadsEndingMidLineAndHoldingTwoLines) {
  // A scripted server: the first reply arrives in two writes, the first
  // ending mid-line; the second write carries its tail and the whole second
  // reply, so the client's next call finds its line already read.
  const std::string path = temp_socket("scripted");
  fs::remove(path);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);

  const std::string long_text(3000, 'q');
  const std::string first = "{\"id\":1,\"ok\":true,\"result\":{\"text\":\"" + long_text + "\"}}\n";
  const std::string second = "{\"id\":2,\"ok\":true,\"result\":{\"text\":\"second\"}}\n";
  const std::string third = "{\"id\":3,\"ok\":true,\"result\":{\"text\":\"third\"}}\n";
  std::vector<std::string> requests;
  std::thread server([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    requests = read_lines(fd, 1);
    const std::size_t split = 1500;
    (void)::write(fd, first.data(), split);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::string rest = first.substr(split) + second;
    (void)::write(fd, rest.data(), rest.size());
    std::vector<std::string> more = read_lines(fd, 2);
    requests.insert(requests.end(), more.begin(), more.end());
    (void)::write(fd, third.data(), third.size());
    ::close(fd);
  });

  DaemonClient client;
  ASSERT_TRUE(client.connect(path, nullptr));
  auto a = client.call("query", "{}");
  auto b = client.call("query", "{}");
  auto c = client.call("query", "{}");
  server.join();
  ::close(listener);
  fs::remove(path);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  EXPECT_EQ(a->id, 1u);
  EXPECT_EQ(a->result.find("text")->string, long_text);
  EXPECT_EQ(b->id, 2u);
  EXPECT_EQ(b->result.find("text")->string, "second");
  EXPECT_EQ(c->id, 3u);
  EXPECT_EQ(c->result.find("text")->string, "third");
  EXPECT_EQ(requests.size(), 3u);
}

}  // namespace
}  // namespace ara::daemon
