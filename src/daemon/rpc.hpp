// The arad wire protocol (`ara.rpc.v1`, docs/FORMATS.md): newline-delimited
// JSON over a Unix-domain stream socket. One request per line:
//
//   {"id": 7, "method": "analyze", "params": {...}}
//
// answered by exactly one response line with the same id:
//
//   {"id": 7, "ok": true,  "result": {...}}
//   {"id": 7, "ok": false, "error": "what went wrong"}
//
// ids are chosen by the client (echoed verbatim, monotonically increasing
// by convention); methods are `analyze`, `query`, `explain`, `status`,
// `shutdown`. The framing is deliberately dumb — no length prefixes, no
// binary — so a daemon can be driven from a shell with `nc -U`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/json.hpp"

namespace ara::daemon {

/// Protocol identifier reported by `status` and documented in FORMATS.md.
inline constexpr std::string_view kRpcSchema = "ara.rpc.v1";

struct RpcRequest {
  std::uint64_t id = 0;
  std::string method;
  json::Value params;  // the params object; Kind::Null when absent
};

/// Parses one request line. Returns nullopt and sets `error` on malformed
/// input (bad JSON, missing/ill-typed id or method). When the line carried
/// a recognizable id despite being malformed, `*id_out` receives it so the
/// error response can still be correlated.
[[nodiscard]] std::optional<RpcRequest> parse_request(std::string_view line,
                                                      std::string* error,
                                                      std::uint64_t* id_out = nullptr);

/// `{"id":N,"ok":true,"result":<result_object>}\n`. `result_object` must
/// already be serialized JSON (an object, by convention).
[[nodiscard]] std::string ok_response(std::uint64_t id, const std::string& result_object);

/// `{"id":N,"ok":false,"error":"..."}\n`.
[[nodiscard]] std::string error_response(std::uint64_t id, std::string_view message);

/// Machine-readable failure classes for `ok:false` responses. Clients key
/// their retry decisions off these, never off the human-readable `error`
/// text: `overloaded` and `shutting_down` are transient (retry after
/// `retry_after_ms`), the rest are deterministic and must not be retried.
inline constexpr std::string_view kCodeOverloaded = "overloaded";
inline constexpr std::string_view kCodeTooLarge = "too_large";
inline constexpr std::string_view kCodeDeadline = "deadline";
inline constexpr std::string_view kCodeShuttingDown = "shutting_down";

/// Coded failure: `{"id":N,"ok":false,"code":"...","error":"..."
/// [,"retry_after_ms":M]}\n`. `retry_after_ms` is emitted when >= 0 — the
/// backoff hint a shedding daemon sends with `overloaded`/`shutting_down`.
[[nodiscard]] std::string error_response(std::uint64_t id, std::string_view code,
                                         std::string_view message,
                                         std::int64_t retry_after_ms);

/// Convenience param accessors (nullptr / fallback when absent or
/// ill-typed). `params` may be any Value; only objects yield members.
[[nodiscard]] std::string param_string(const json::Value& params, std::string_view key,
                                       std::string_view fallback = {});
[[nodiscard]] std::uint64_t param_u64(const json::Value& params, std::string_view key,
                                      std::uint64_t fallback = 0);
[[nodiscard]] bool param_bool(const json::Value& params, std::string_view key, bool fallback);

}  // namespace ara::daemon
