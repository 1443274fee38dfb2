#include "rgn/region_row.hpp"

#include <charconv>

#include "obs/stats.hpp"
#include "support/csv.hpp"
#include "support/string_utils.hpp"
#include "support/text_table.hpp"

namespace ara::rgn {

ARA_STATISTIC(stat_rows_emitted, "rgn.rows_emitted", "Region rows written to .rgn output");

namespace {

constexpr std::size_t kColumns = 19;

const char* kHeader[kColumns] = {
    "Scope",      "Array",    "File",     "Mode",     "References", "Dims",
    "LB",         "UB",       "Stride",   "Element_size", "Data_type", "Dim_size",
    "Tot_size",   "Size_bytes", "Mem_Loc", "Acc_density", "Image",    "Line",
    "Version",
};

template <typename T>
bool parse_int(const std::string& s, T& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

}  // namespace

std::int64_t access_density_pct(std::uint64_t refs, std::int64_t bytes) {
  if (bytes <= 0) return 0;
  return static_cast<std::int64_t>(refs * 100 / static_cast<std::uint64_t>(bytes));
}

double access_density_exact(std::uint64_t refs, std::int64_t bytes) {
  if (bytes <= 0) return 0.0;
  return static_cast<double>(refs) / static_cast<double>(bytes);
}

std::string render_table(const std::vector<RegionRow>& rows) {
  TextTable table;
  table.set_header({"Scope", "Array", "Mode", "Refs", "LB", "UB", "Stride", "Line"});
  for (const RegionRow& r : rows) {
    table.add_row({r.scope, r.array, r.mode, std::to_string(r.references), r.lb, r.ub, r.stride,
                   std::to_string(r.line)});
  }
  return table.render();
}

std::string write_rgn(const std::vector<RegionRow>& rows) {
  stat_rows_emitted.bump(rows.size());
  std::string out;
  out.reserve(256 + rows.size() * 96);  // rows average about 85 bytes on perfbench's project
  for (std::size_t i = 0; i < kColumns; ++i) {
    if (i != 0) out += ',';
    out += kHeader[i];
  }
  out += '\n';
  // Integer columns never need quoting.
  const auto text = [&out](std::string_view field) {
    append_csv_field(out, field);
    out += ',';
  };
  const auto number = [&out](auto value) {
    append_decimal(out, value);
    out += ',';
  };
  for (const RegionRow& r : rows) {
    text(r.scope);
    text(r.array);
    text(r.file);
    text(r.mode);
    number(r.references);
    number(r.dims);
    text(r.lb);
    text(r.ub);
    text(r.stride);
    number(r.element_size);
    text(r.data_type);
    text(r.dim_size);
    number(r.tot_size);
    number(r.size_bytes);
    text(r.mem_loc);
    number(r.acc_density);
    text(r.image);
    number(r.line);
    out += "2\n";  // Version
  }
  return out;
}

bool parse_rgn(const std::string& text, std::vector<RegionRow>& out, std::string* error) {
  const auto rows = parse_csv(text);
  auto fail = [&](std::size_t line, std::string_view why) {
    if (error != nullptr) *error = "line " + std::to_string(line + 1) + ": " + std::string(why);
    return false;
  };
  if (rows.empty()) return fail(0, "empty .rgn file");
  if (rows[0].size() != kColumns || rows[0][0] != kHeader[0]) {
    return fail(0, "bad .rgn header");
  }
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& f = rows[i];
    if (f.size() != kColumns) return fail(i, "wrong column count");
    RegionRow r;
    r.scope = f[0];
    r.array = f[1];
    r.file = f[2];
    r.mode = f[3];
    if (!parse_int(f[4], r.references)) return fail(i, "bad References");
    if (!parse_int(f[5], r.dims)) return fail(i, "bad Dims");
    r.lb = f[6];
    r.ub = f[7];
    r.stride = f[8];
    if (!parse_int(f[9], r.element_size)) return fail(i, "bad Element_size");
    r.data_type = f[10];
    r.dim_size = f[11];
    if (!parse_int(f[12], r.tot_size)) return fail(i, "bad Tot_size");
    if (!parse_int(f[13], r.size_bytes)) return fail(i, "bad Size_bytes");
    r.mem_loc = f[14];
    if (!parse_int(f[15], r.acc_density)) return fail(i, "bad Acc_density");
    r.image = f[16];
    if (!parse_int(f[17], r.line)) return fail(i, "bad Line");
    out.push_back(std::move(r));
  }
  return true;
}

}  // namespace ara::rgn
