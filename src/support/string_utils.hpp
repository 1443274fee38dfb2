// Small string helpers used across the project.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ara {

[[nodiscard]] std::string to_lower(std::string_view s);
[[nodiscard]] std::string to_upper(std::string_view s);

/// Case-insensitive equality (Fortran identifiers and keywords).
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

[[nodiscard]] std::string_view trim(std::string_view s);

[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

[[nodiscard]] bool starts_with_icase(std::string_view s, std::string_view prefix);

/// Formats an address the way the paper's Mem_Loc column does: lowercase hex,
/// no 0x prefix (e.g. "b7fcefe0").
[[nodiscard]] std::string to_hex(std::uint64_t value);

/// Parses the Mem_Loc hex format back to an integer; returns false on junk.
[[nodiscard]] bool from_hex(std::string_view s, std::uint64_t& out);

/// Appends the decimal digits of `value` to `out`: std::to_string's bytes
/// without the temporary.
template <typename Int>
void append_decimal(std::string& out, Int value) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

}  // namespace ara
