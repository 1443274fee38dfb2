#include "daemon/rpc.hpp"

#include <cmath>
#include <sstream>

namespace ara::daemon {

std::optional<RpcRequest> parse_request(std::string_view line, std::string* error,
                                        std::uint64_t* id_out) {
  auto fail = [&](std::string_view why) -> std::optional<RpcRequest> {
    if (error != nullptr) *error = std::string(why);
    return std::nullopt;
  };

  std::string parse_error;
  std::optional<json::Value> v = json::parse(line, &parse_error);
  if (!v.has_value()) return fail("bad JSON: " + parse_error);
  if (!v->is_object()) return fail("request must be a JSON object");

  RpcRequest req;
  const json::Value* id = v->find("id");
  if (id == nullptr || !id->is_number() || id->number < 0 ||
      id->number != std::floor(id->number)) {
    return fail("'id' must be a non-negative integer");
  }
  req.id = static_cast<std::uint64_t>(id->number);
  if (id_out != nullptr) *id_out = req.id;

  const json::Value* method = v->find("method");
  if (method == nullptr || !method->is_string()) return fail("'method' must be a string");
  req.method = method->string;

  if (json::Value* params = v->find("params"); params != nullptr) {
    if (!params->is_object()) return fail("'params' must be an object");
    req.params = std::move(*params);
  }
  return req;
}

std::string ok_response(std::uint64_t id, const std::string& result_object) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"ok\":true,\"result\":" << result_object << "}\n";
  return os.str();
}

std::string error_response(std::uint64_t id, std::string_view message) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"ok\":false,\"error\":\"" << json::escape(message) << "\"}\n";
  return os.str();
}

std::string error_response(std::uint64_t id, std::string_view code, std::string_view message,
                           std::int64_t retry_after_ms) {
  std::ostringstream os;
  os << "{\"id\":" << id << ",\"ok\":false,\"code\":\"" << json::escape(code)
     << "\",\"error\":\"" << json::escape(message) << "\"";
  if (retry_after_ms >= 0) os << ",\"retry_after_ms\":" << retry_after_ms;
  os << "}\n";
  return os.str();
}

std::string param_string(const json::Value& params, std::string_view key,
                         std::string_view fallback) {
  const json::Value* v = params.find(key);
  if (v == nullptr || !v->is_string()) return std::string(fallback);
  return v->string;
}

std::uint64_t param_u64(const json::Value& params, std::string_view key,
                        std::uint64_t fallback) {
  const json::Value* v = params.find(key);
  if (v == nullptr || !v->is_number() || v->number < 0) return fallback;
  return static_cast<std::uint64_t>(v->number);
}

bool param_bool(const json::Value& params, std::string_view key, bool fallback) {
  const json::Value* v = params.find(key);
  if (v == nullptr || !v->is_bool()) return fallback;
  return v->boolean;
}

}  // namespace ara::daemon
