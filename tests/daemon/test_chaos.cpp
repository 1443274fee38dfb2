// Chaos/soak harness for arad (ISSUE 10 acceptance): a REAL spawned daemon
// process — not an in-process DaemonServer — hammered by concurrent clients
// while ARA_FAILPOINTS injects ~10% faults across the whole request path
// (accept, read, handle, respond, publish). The daemon must never crash and
// every request must end in exactly one well-formed outcome: success, a
// structured failure, or an overloaded/shutting_down shed. Then the crash
// drill: kill -9 while a cache store is in flight, restart on the same
// socket and cache dir, and assert the socket is reclaimed, no partial entry
// was published, and the warm incremental path reproduces byte-identical
// artifacts.
//
// ARA_ARAD_BIN (a compile definition) points at the arad executable.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arad_process.hpp"
#include "daemon/client.hpp"
#include "support/json.hpp"

namespace ara::daemon {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* tag, const char* suffix) {
  return (fs::temp_directory_path() /
          (std::string("ara_chaos_") + tag + "_" + std::to_string(::getpid()) + suffix))
      .string();
}

std::string c_unit(const std::string& array, const std::string& proc) {
  std::string text;
  text += "double " + array + "[16][16];\n";
  text += "void " + proc + "(void) {\n  int i, j;\n";
  text += "  for (i = 0; i < 16; i++) {\n    for (j = 0; j < 16; j++) {\n";
  text += "      " + array + "[i][j] = i + j;\n    }\n  }\n}\n";
  return text;
}

/// `edit` is appended to both units' text, so an edited request misses the
/// cache entries of an unedited one.
std::string analyze_params(const std::string& project, const std::string& cache_dir = "",
                           const std::string& edit = "") {
  std::ostringstream os;
  os << "{\"project\":\"" << project << "\",";
  if (!cache_dir.empty()) os << "\"cache_dir\":\"" << json::escape(cache_dir) << "\",";
  os << "\"sources\":["
     << "{\"name\":\"alpha.c\",\"lang\":\"c\",\"text\":\""
     << json::escape(c_unit("a", "alpha") + edit) << "\"},"
     << "{\"name\":\"beta.c\",\"lang\":\"c\",\"text\":\""
     << json::escape(c_unit("b", "beta") + edit) << "\"}]}";
  return os.str();
}

std::size_t count_entries(const std::string& cache_dir) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(cache_dir)) {
    if (e.path().extension() == ".unit") ++n;
  }
  return n;
}

std::uint64_t num(const json::Value& v, std::string_view key) {
  const json::Value* m = v.find(key);
  return (m != nullptr && m->is_number()) ? static_cast<std::uint64_t>(m->number) : 0;
}

// ---------------------------------------------------------------------------

TEST(DaemonChaos, SurvivesConcurrentClientsUnderInjectedFaults) {
  const std::string socket = temp_path("soak", ".sock");
  // ~10% firing across every failpoint in the request path. Deterministic
  // per (seed, point, context): reruns see the same fault schedule.
  const std::string failpoints =
      "seed=7;daemon.accept=io@5;daemon.read=io@10;daemon.handle=io@10;"
      "daemon.respond=io@10;daemon.publish=io@10";
  const pid_t pid = spawn_arad({"--socket", socket, "--jobs", "4", "--max-inflight", "3",
                                "--max-queue", "8", "--retry-after-ms", "5",
                                "--drain-ms", "3000"},
                               failpoints);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_daemon(socket)) << "daemon never became ready";

  // 8 concurrent clients, each issuing a mixed workload through call_retry.
  // Severed connections (read/respond/accept faults) surface as transport
  // loss and are retried over a fresh connection; `overloaded` sheds back
  // off and retry. A handle/publish fault answers a structured ok:false —
  // that IS a well-formed outcome and is counted as such.
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 12;
  std::atomic<int> well_formed{0};
  std::atomic<int> lost{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      DaemonClient client;
      (void)client.connect(socket, nullptr);
      RetryOptions retry;
      retry.backoff.attempts = 15;  // p(all 15 attempts faulted) ~ 0.1^15
      retry.backoff.initial = std::chrono::milliseconds(5);
      retry.backoff.max = std::chrono::milliseconds(100);
      retry.seed = static_cast<std::uint64_t>(c);
      const std::string project = "soak" + std::to_string(c);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        std::optional<RpcReply> reply;
        switch (r % 3) {
          case 0:
            reply = client.call_retry("analyze", analyze_params(project), retry);
            break;
          case 1:
            reply = client.call_retry("query", "{\"project\":\"" + project + "\"}", retry);
            break;
          default:
            reply = client.call_retry("status", "{}", retry);
            break;
        }
        // Exactly-one-well-formed-response: the retry loop returns either a
        // parsed JSON reply (ok, structured failure, or a shed it could not
        // outlast) or nullopt for a request lost in transit.
        if (reply.has_value()) {
          ++well_formed;
        } else {
          ++lost;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(well_formed.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(lost.load(), 0);
  ASSERT_TRUE(alive(pid)) << "daemon crashed under chaos load";

  // Still coherent after the storm: a fresh client gets a status reply.
  DaemonClient after;
  ASSERT_TRUE(after.connect(socket, nullptr));
  RetryOptions retry;
  retry.backoff.attempts = 10;
  retry.backoff.initial = std::chrono::milliseconds(5);
  const auto status = after.call_retry("status", "{}", retry);
  ASSERT_TRUE(status.has_value() && status->ok);

  // Graceful exit even with failpoints still armed.
  const int wait_status = terminate_and_reap(pid);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);
  EXPECT_FALSE(fs::exists(socket)) << "graceful shutdown must unlink the socket";
}

TEST(DaemonChaos, KillNineRestartReclaimsSocketAndWarmCache) {
  const std::string socket = temp_path("crash", ".sock");
  const std::string cache_dir = temp_path("crash", ".cache");
  fs::create_directories(cache_dir);

  // Generation 1 stalls every cache store for 300 ms, so the kill below
  // lands while a store is in flight.
  const std::vector<std::string> arad_args = {"--socket", socket, "--jobs", "2",
                                              "--drain-ms", "2000"};
  const pid_t gen1 = spawn_arad(arad_args, "cache.write=delay:300");
  ASSERT_GT(gen1, 0);
  ASSERT_TRUE(wait_for_daemon(socket));

  DaemonClient client;
  ASSERT_TRUE(client.connect(socket, nullptr));
  const auto cold = client.call("analyze", analyze_params("phoenix", cache_dir));
  ASSERT_TRUE(cold.has_value() && cold->ok) << (cold ? cold->error : "no reply");
  EXPECT_EQ(num(cold->result, "cache_misses"), 2u);
  ASSERT_EQ(count_entries(cache_dir), 2u);

  const auto rgn1 = client.call("query", R"({"project":"phoenix","artifact":"rgn"})");
  ASSERT_TRUE(rgn1.has_value() && rgn1->ok);
  const std::string artifact_before = rgn1->result.find("text")->string;
  ASSERT_FALSE(artifact_before.empty());

  // kill -9 mid-store: the doomed request's edited units miss the cache, and
  // the first one's store is stalled when the plug is pulled.
  std::atomic<bool> doomed_replied{false};
  std::thread doomed([&socket, &cache_dir, &doomed_replied] {
    DaemonClient d;
    if (d.connect(socket, nullptr)) {
      doomed_replied =
          d.call("analyze", analyze_params("doomed", cache_dir, "/* edited */\n")).has_value();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(gen1, SIGKILL);
  doomed.join();
  int status = 0;
  ASSERT_EQ(::waitpid(gen1, &status, 0), gen1);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  EXPECT_FALSE(doomed_replied.load()) << "the doomed analyze finished before the kill";

  // SIGKILL leaves a bound-but-dead socket file behind, which the restart
  // must reclaim. The interrupted store published nothing: the cache holds
  // exactly phoenix's two entries.
  EXPECT_TRUE(fs::exists(socket));
  EXPECT_EQ(count_entries(cache_dir), 2u);

  const pid_t gen2 = spawn_arad(arad_args, "");
  ASSERT_GT(gen2, 0);
  ASSERT_TRUE(wait_for_daemon(socket)) << "restart did not reclaim the dead socket";

  // Warm incremental path across the crash: the summaries gen 1 persisted
  // make gen 2's analyze pure cache hits, and the artifact is byte-identical.
  DaemonClient reborn;
  ASSERT_TRUE(reborn.connect(socket, nullptr));
  const auto warm = reborn.call("analyze", analyze_params("phoenix", cache_dir));
  ASSERT_TRUE(warm.has_value() && warm->ok) << (warm ? warm->error : "no reply");
  EXPECT_EQ(num(warm->result, "cache_hits"), 2u);
  EXPECT_EQ(num(warm->result, "cache_misses"), 0u);

  const auto rgn2 = reborn.call("query", R"({"project":"phoenix","artifact":"rgn"})");
  ASSERT_TRUE(rgn2.has_value() && rgn2->ok);
  EXPECT_EQ(rgn2->result.find("text")->string, artifact_before)
      << "warm artifact must be byte-identical across the crash";

  const int wait_status = terminate_and_reap(gen2);
  ASSERT_TRUE(WIFEXITED(wait_status));
  EXPECT_EQ(WEXITSTATUS(wait_status), 0);
  fs::remove_all(cache_dir);
}

}  // namespace
}  // namespace ara::daemon
