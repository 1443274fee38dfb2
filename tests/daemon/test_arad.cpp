// A real spawned arad, as shipped (telemetry on for its whole life):
// memory and thread count stay flat over a thousand LU analyzes with
// alternating edits, and `arac --daemon-connect` reproduces a local run's
// exports.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arad_process.hpp"
#include "daemon/client.hpp"
#include "driver/cli.hpp"
#include "support/json.hpp"

namespace ara::daemon {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* tag, const char* suffix) {
  return (fs::temp_directory_path() /
          (std::string("ara_arad_") + tag + "_" + std::to_string(::getpid()) + suffix))
      .string();
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<fs::path> lu_files() {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(fs::path(ARA_WORKLOADS_DIR) / "lu")) {
    if (e.path().extension() == ".f") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// analyze params for the LU project; `edited` appends a comment to
/// exact.f, so it alone re-analyzes.
std::string lu_params(bool edited) {
  std::ostringstream os;
  os << "{\"project\":\"lu\",\"sources\":[";
  bool first = true;
  for (const fs::path& file : lu_files()) {
    std::string text = read_file(file);
    if (edited && file.filename() == "exact.f") text += "\n! edited\n";
    os << (first ? "" : ",") << "{\"name\":\"" << file.filename().string()
       << "\",\"lang\":\"fortran\",\"text\":\"" << json::escape(text) << "\"}";
    first = false;
  }
  os << "]}";
  return os.str();
}

struct ProcStatus {
  std::uint64_t rss_kb = 0;
  std::uint64_t threads = 0;
};

ProcStatus read_status(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  ProcStatus st;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmRSS:", 0) == 0) st.rss_kb = std::stoull(line.substr(6));
    if (line.rfind("Threads:", 0) == 0) st.threads = std::stoull(line.substr(8));
  }
  return st;
}

/// Spawns arad on `socket` and stops it when the test ends, however it ends.
struct SpawnedArad {
  explicit SpawnedArad(const std::string& socket) : pid(spawn_arad({"--socket", socket}, "")) {}
  ~SpawnedArad() {
    if (pid > 0) terminate_and_reap(pid);
  }
  pid_t pid;
};

TEST(AradSoak, MemoryAndThreadsStayFlatOverAThousandAnalyzes) {
  const std::string socket = temp_path("soak", ".sock");
  const SpawnedArad arad(socket);
  ASSERT_GT(arad.pid, 0);
  ASSERT_TRUE(wait_for_daemon(socket)) << "daemon never became ready";
  DaemonClient client;
  ASSERT_TRUE(client.connect(socket, nullptr));

  const std::string params[2] = {lu_params(false), lu_params(true)};
  constexpr int kRequests = 1000;
  constexpr int kWarm = 100;  // allocator pools and warm state settle by then
  ProcStatus warm;
  for (int i = 1; i <= kRequests; ++i) {
    const std::optional<RpcReply> reply = client.call("analyze", params[i % 2]);
    ASSERT_TRUE(reply.has_value() && reply->ok) << "analyze " << i << " failed";
    if (i == kWarm) warm = read_status(arad.pid);
  }
  const ProcStatus last = read_status(arad.pid);
  RecordProperty("rss_kb_after_warm", static_cast<int>(warm.rss_kb));
  RecordProperty("rss_kb_after_last", static_cast<int>(last.rss_kb));
  ASSERT_GT(warm.rss_kb, 0u);
  EXPECT_LT(last.rss_kb, warm.rss_kb + 2048)
      << "RSS grew from " << warm.rss_kb << " kB after " << kWarm << " analyzes to "
      << last.rss_kb << " kB after " << kRequests;
  EXPECT_EQ(last.threads, warm.threads);
  EXPECT_TRUE(alive(arad.pid));
}

/// Runs arac in-process; returns its exit code, stdout in `out`.
int arac(std::vector<std::string> args, std::string* out) {
  for (const fs::path& file : lu_files()) args.push_back(file.string());
  std::ostringstream o;
  std::ostringstream e;
  const int rc = driver::run_arac(args, o, e);
  *out = o.str();
  return rc;
}

TEST(AradClientMode, MatchesALocalRun) {
  const std::string socket = temp_path("client", ".sock");
  const fs::path dir = temp_path("client", "");
  fs::remove_all(dir);
  const SpawnedArad arad(socket);
  ASSERT_GT(arad.pid, 0);
  ASSERT_TRUE(wait_for_daemon(socket)) << "daemon never became ready";

  std::string client_out;
  std::string local_out;
  ASSERT_EQ(arac({"--daemon-connect", socket, "--quiet", "--name", "lu", "--export-dir",
                  (dir / "client").string(), "--provenance-out",
                  (dir / "client.prov.jsonl").string(), "--explain"},
                 &client_out),
            0);
  ASSERT_EQ(arac({"--quiet", "--name", "lu", "--export-dir", (dir / "local").string(),
                  "--provenance-out", (dir / "local.prov.jsonl").string(), "--explain"},
                 &local_out),
            0);

  for (const char* file : {"lu.rgn", "lu.dgn", "lu.cfg"}) {
    const std::string local = read_file(dir / "local" / file);
    EXPECT_FALSE(local.empty()) << file;
    EXPECT_EQ(read_file(dir / "client" / file), local) << file;
  }
  EXPECT_EQ(client_out, local_out) << "--explain";

  // The daemon computes no loop verdicts, so its records are the local
  // run's without the loop_not_parallel ones: same bytes otherwise.
  std::istringstream local_prov(read_file(dir / "local.prov.jsonl"));
  std::string header;
  std::getline(local_prov, header);
  std::string records;
  std::size_t kept = 0;
  for (std::string line; std::getline(local_prov, line);) {
    if (line.find("\"kind\": \"loop_not_parallel\"") != std::string::npos) continue;
    records += line + "\n";
    ++kept;
  }
  EXPECT_NE(header.find("\"run\": \"lu\""), std::string::npos) << header;
  EXPECT_EQ(read_file(dir / "client.prov.jsonl"),
            "{\"schema\": \"ara.prov.v1\", \"run\": \"lu\", \"records\": " +
                std::to_string(kept) + "}\n" + records);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ara::daemon
