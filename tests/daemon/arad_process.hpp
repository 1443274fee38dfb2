// Helpers for tests that drive a real spawned arad process: fork+exec,
// readiness probe, and SIGTERM-then-reap. ARA_ARAD_BIN (a compile
// definition) points at the arad executable.
#pragma once

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.hpp"

namespace ara::daemon {

/// fork+exec arad. `failpoints` (may be empty) becomes ARA_FAILPOINTS in the
/// child only — the parent's fault injection stays disarmed.
inline pid_t spawn_arad(const std::vector<std::string>& args, const std::string& failpoints) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;

  // Child. Quiet the daemon's stdout/stderr so gtest output stays readable.
  if (FILE* sink = std::fopen("/dev/null", "w")) {
    ::dup2(::fileno(sink), STDOUT_FILENO);
    ::dup2(::fileno(sink), STDERR_FILENO);
  }
  if (!failpoints.empty()) ::setenv("ARA_FAILPOINTS", failpoints.c_str(), 1);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(ARA_ARAD_BIN));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(ARA_ARAD_BIN, argv.data());
  _exit(127);  // exec failed
}

inline bool wait_for_daemon(const std::string& socket,
                            std::chrono::milliseconds budget = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    DaemonClient probe;
    if (probe.connect(socket, nullptr)) {
      // Connected is not enough under chaos (the accept failpoint may close
      // us); a status round trip proves the daemon is actually serving.
      RetryOptions retry;
      retry.backoff.attempts = 3;
      retry.backoff.initial = std::chrono::milliseconds(5);
      const auto status = probe.call_retry("status", "{}", retry);
      if (status.has_value() && status->ok) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

inline bool alive(pid_t pid) { return ::waitpid(pid, nullptr, WNOHANG) == 0; }

/// SIGTERM, then reap; returns the wait() status (or -1 on a hung child,
/// which is then SIGKILLed so the test suite does not leak daemons).
inline int terminate_and_reap(pid_t pid) {
  ::kill(pid, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

}  // namespace ara::daemon
