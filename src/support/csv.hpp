// Minimal CSV reader/writer. The paper's compiler extension emits the array
// analysis results as "a comma separated plain file .rgn, where each row
// maintains information about each region per access mode" (§IV-C); Dragon
// parses it back. Fields containing separators or quotes are quoted per
// RFC 4180.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ara {

/// Appends `field` to `out` as one CSV field: verbatim, or in quotes with
/// its quotes doubled when it holds ',', '"', '\n' or '\r'.
void append_csv_field(std::string& out, std::string_view field);

/// Parses CSV text into rows of fields. Handles quoted fields, embedded
/// separators, escaped quotes ("") and both \n and \r\n line endings.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(std::string_view text);

}  // namespace ara
