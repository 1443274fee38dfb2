#include "daemon/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

namespace ara::daemon {

DaemonClient::~DaemonClient() { close(); }

bool DaemonClient::connect(const std::string& socket_path, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    close();
    return false;
  };
  close();

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return fail("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);

  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return fail("cannot create socket");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("cannot connect to " + socket_path + ": " + std::strerror(errno));
  }
  socket_path_ = socket_path;
  return true;
}

void DaemonClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

std::optional<RpcReply> DaemonClient::call(std::string_view method,
                                           const std::string& params_object) {
  if (fd_ < 0) return std::nullopt;
  const std::uint64_t id = next_id_++;

  std::ostringstream os;
  os << "{\"id\":" << id << ",\"method\":\"" << method << "\",\"params\":" << params_object
     << "}\n";
  const std::string request = os.str();

  std::size_t off = 0;
  while (off < request.size()) {
    // MSG_NOSIGNAL: a daemon that died mid-call must surface as a nullopt
    // (so call_retry can reconnect), not as a process-wide SIGPIPE.
    const ssize_t n = ::send(fd_, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;
    }
    off += static_cast<std::size_t>(n);
  }

  // One response line per request; anything past the newline stays buffered
  // (the daemon never sends unsolicited data, but the read can split lines).
  // Only bytes not yet searched can hold the newline, so a long reply
  // arriving in many reads is scanned once.
  std::size_t scanned = 0;
  std::size_t nl = 0;
  for (;;) {
    nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) break;
    scanned = buffer_.size();
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;  // daemon went away mid-call
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }

  std::optional<json::Value> v = json::parse(std::string_view(buffer_.data(), nl));
  buffer_.erase(0, nl + 1);
  if (!v.has_value() || !v->is_object()) return std::nullopt;

  RpcReply reply;
  if (const json::Value* rid = v->find("id"); rid != nullptr && rid->is_number()) {
    reply.id = static_cast<std::uint64_t>(rid->number);
  }
  if (const json::Value* ok = v->find("ok"); ok != nullptr && ok->is_bool()) {
    reply.ok = ok->boolean;
  }
  if (reply.ok) {
    if (json::Value* result = v->find("result"); result != nullptr) {
      reply.result = std::move(*result);
    }
  } else if (const json::Value* err = v->find("error");
             err != nullptr && err->is_string()) {
    reply.error = err->string;
  }
  if (const json::Value* code = v->find("code"); code != nullptr && code->is_string()) {
    reply.code = code->string;
  }
  if (const json::Value* after = v->find("retry_after_ms");
      after != nullptr && after->is_number() && after->number >= 0) {
    reply.retry_after_ms = static_cast<std::int64_t>(after->number);
  }
  return reply;
}

std::optional<RpcReply> DaemonClient::call_retry(std::string_view method,
                                                 const std::string& params_object,
                                                 const RetryOptions& retry) {
  const int attempts = retry.backoff.attempts < 1 ? 1 : retry.backoff.attempts;
  for (int attempt = 1;; ++attempt) {
    if (fd_ < 0 && !socket_path_.empty()) {
      (void)connect(socket_path_, nullptr);  // transparent reconnect
    }
    std::optional<RpcReply> reply = call(method, params_object);
    if (reply.has_value() && !reply->transient()) return reply;

    if (attempt >= attempts) return reply;  // exhausted: last shed reply or nullopt
    ++retries_;
    // Transport loss severs the connection; reconnect happens at the top of
    // the next attempt after the backoff (an arad restart needs a moment to
    // re-bind its socket).
    if (!reply.has_value()) close();
    std::chrono::milliseconds delay =
        support::backoff_ms(retry.backoff, attempt, retry.seed);
    if (reply.has_value() && reply->retry_after_ms >= 0) {
      delay = std::max(delay, std::chrono::milliseconds(reply->retry_after_ms));
    }
    std::this_thread::sleep_for(delay);
  }
}

}  // namespace ara::daemon
