#include "obs/provenance.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/stats.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

namespace ara::obs {

namespace detail {
constinit thread_local ProvSinkState t_prov_sink;
constinit thread_local const ProvCtx* t_prov_ctx = nullptr;
}  // namespace detail

std::string_view to_string(CauseKind kind) {
  switch (kind) {
    case CauseKind::NonAffineSubscript: return "non_affine_subscript";
    case CauseKind::SubscriptedSubscript: return "subscripted_subscript";
    case CauseKind::NonAffineLoopBound: return "non_affine_loop_bound";
    case CauseKind::UnknownExtent: return "unknown_extent";
    case CauseKind::UnresolvedCall: return "unresolved_call";
    case CauseKind::FmUnprojected: return "fm_unprojected";
    case CauseKind::ActualNotAffine: return "actual_not_affine";
    case CauseKind::CalleeLocalEscape: return "callee_local_escape";
    case CauseKind::CalleeImprecision: return "callee_imprecision";
    case CauseKind::UnionWidening: return "union_widening";
    case CauseKind::UnionDrop: return "union_drop";
    case CauseKind::LimitDemotion: return "limit_demotion";
    case CauseKind::LoopNotParallel: return "loop_not_parallel";
    case CauseKind::RecursionWidening: return "recursion_widening";
  }
  return "unknown";
}

std::string_view describe(CauseKind kind) {
  switch (kind) {
    case CauseKind::NonAffineSubscript: return "non-affine subscript";
    case CauseKind::SubscriptedSubscript: return "subscripted subscript";
    case CauseKind::NonAffineLoopBound: return "non-affine loop bound";
    case CauseKind::UnknownExtent: return "unknown extent (assumed size)";
    case CauseKind::UnresolvedCall: return "unresolved external call";
    case CauseKind::FmUnprojected: return "projection failed to bound the dimension";
    case CauseKind::ActualNotAffine: return "call actual is not affine";
    case CauseKind::CalleeLocalEscape: return "callee-local variable in translated bound";
    case CauseKind::CalleeImprecision: return "imprecision inherited from callee summary";
    case CauseKind::UnionWidening: return "region union widened to its hull";
    case CauseKind::UnionDrop: return "region union dropped its oldest region";
    case CauseKind::LimitDemotion: return "unit demoted by a resource limit";
    case CauseKind::LoopNotParallel: return "loop not parallelizable";
    case CauseKind::RecursionWidening: return "recursion widened to the declared extent";
  }
  return "unknown";
}

bool cause_from_string(std::string_view tag, CauseKind* out) {
  static constexpr CauseKind kAll[] = {
      CauseKind::NonAffineSubscript, CauseKind::SubscriptedSubscript,
      CauseKind::NonAffineLoopBound, CauseKind::UnknownExtent,
      CauseKind::UnresolvedCall,     CauseKind::FmUnprojected,
      CauseKind::ActualNotAffine,    CauseKind::CalleeLocalEscape,
      CauseKind::CalleeImprecision,  CauseKind::UnionWidening,
      CauseKind::UnionDrop,          CauseKind::LimitDemotion,
      CauseKind::LoopNotParallel,    CauseKind::RecursionWidening,
  };
  for (CauseKind k : kAll) {
    if (to_string(k) == tag) {
      *out = k;
      return true;
    }
  }
  return false;
}

void prov_record(CauseKind kind, const ProvCtx& ctx, std::int32_t dim, std::string_view detail) {
  detail::ProvSinkState& sink = detail::t_prov_sink;
  if (sink.out == nullptr) return;
  ProvRecord rec;
  rec.unit = sink.unit;
  rec.seq = sink.seq++;
  rec.kind = kind;
  rec.proc = std::string(ctx.proc);
  rec.array = std::string(ctx.array);
  rec.dim = dim;
  rec.file = std::string(ctx.file);
  rec.line = ctx.line;
  rec.detail = std::string(detail);
  sink.out->push_back(std::move(rec));
}

void prov_record_ambient(CauseKind kind, std::int32_t dim, std::string_view detail) {
  if (detail::t_prov_sink.out == nullptr) return;
  const ProvCtx* ctx = detail::t_prov_ctx;
  if (ctx == nullptr) return;  // no attribution -> a record would be noise
  prov_record(kind, *ctx, dim, detail);
}

ProvSink::ProvSink(std::vector<ProvRecord>* out, std::uint32_t unit) {
  saved_ = detail::t_prov_sink;
  detail::t_prov_sink = {out, unit, 0};
}

ProvSink::~ProvSink() { detail::t_prov_sink = saved_; }

ProvScope::ProvScope(ProvCtx ctx) : ctx_(ctx), saved_(detail::t_prov_ctx) {
  detail::t_prov_ctx = &ctx_;
}

ProvScope::~ProvScope() { detail::t_prov_ctx = saved_; }

void sort_provenance(std::vector<ProvRecord>& records) {
  // `seq` is capture order within the unit, so (unit, seq) is a total order
  // per unit; the sort is stable for records appended twice.
  std::stable_sort(records.begin(), records.end(), [](const ProvRecord& a, const ProvRecord& b) {
    if (a.unit != b.unit) return a.unit < b.unit;
    return a.seq < b.seq;
  });
}

std::string render_explain(const std::vector<ProvRecord>& records, const std::string& target,
                           bool loops_only) {
  std::string want_array;
  std::string want_proc;
  if (const std::size_t at = target.find('@'); at != std::string::npos) {
    want_array = to_lower(target.substr(0, at));
    want_proc = to_lower(target.substr(at + 1));
  } else {
    want_array = to_lower(target);
  }

  std::ostringstream os;
  std::size_t shown = 0;
  for (const ProvRecord& r : records) {
    const bool is_loop = r.kind == CauseKind::LoopNotParallel;
    if (is_loop != loops_only) continue;
    if (!want_array.empty() && to_lower(r.array) != want_array) continue;
    if (!want_proc.empty() && to_lower(r.proc) != want_proc) continue;
    os << "  ";
    if (!r.file.empty()) os << r.file << ':' << r.line << ": ";
    if (!r.proc.empty()) os << "in " << r.proc << ": ";
    if (!r.array.empty()) {
      os << '\'' << r.array << '\'';
      if (r.dim >= 0) os << " dim " << (r.dim + 1);
      os << ": ";
    } else if (r.dim >= 0) {
      os << "dim " << (r.dim + 1) << ": ";
    }
    os << describe(r.kind);
    if (!r.detail.empty()) os << " -- " << r.detail;
    os << '\n';
    ++shown;
  }

  std::ostringstream head;
  if (loops_only) {
    head << "explain: " << shown << " loop(s) stayed serial";
  } else {
    head << "explain: " << shown << " precision-loss cause(s)";
  }
  if (!target.empty()) head << " for '" << target << "'";
  head << (shown == 0 ? "\n" : ":\n");
  return head.str() + os.str();
}

std::string write_provenance_jsonl(const std::vector<ProvRecord>& records,
                                   std::string_view run_name) {
  std::string out;
  out.reserve(64 + run_name.size() + records.size() * 160);
  const auto field = [&out](std::string_view key, std::string_view value) {
    if (value.empty()) return;
    out += ", \"";
    out += key;
    out += "\": \"";
    json::append_escaped(out, value);
    out += '"';
  };
  out += "{\"schema\": \"ara.prov.v1\", \"run\": \"";
  json::append_escaped(out, run_name);
  out += "\", \"records\": ";
  append_decimal(out, records.size());
  out += "}\n";
  for (const ProvRecord& r : records) {
    if (r.unit == kLinkUnit) {
      out += "{\"unit\": \"link\"";
    } else {
      out += "{\"unit\": ";
      append_decimal(out, r.unit);
    }
    out += ", \"seq\": ";
    append_decimal(out, r.seq);
    out += ", \"kind\": \"";
    out += to_string(r.kind);
    out += '"';
    field("proc", r.proc);
    field("array", r.array);
    if (r.dim >= 0) {
      out += ", \"dim\": ";
      append_decimal(out, r.dim);
    }
    field("file", r.file);
    if (r.line != 0) {
      out += ", \"line\": ";
      append_decimal(out, r.line);
    }
    field("detail", r.detail);
    out += "}\n";
  }
  return out;
}

std::string render_precision_json(int indent, std::span<const ProvRecord> causes) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::uint64_t projected = 0, messy = 0, unprojected = 0;
  for (const StatEntry& e : StatsRegistry::instance().snapshot(false)) {
    if (e.name == "regions.dims_projected") projected += e.value;
    if (e.name == "regions.messy_dims") messy += e.value;
    if (e.name == "regions.unprojected_dims") unprojected += e.value;
  }
  const std::uint64_t total = projected + messy + unprojected;
  const auto rate = [&](std::uint64_t n) {
    return total == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(total);
  };
  std::map<std::string_view, std::uint64_t> by_kind;
  for (const ProvRecord& r : causes) ++by_kind[to_string(r.kind)];

  std::ostringstream os;
  os << pad << "\"precision\": {\n";
  os << pad << "  \"dims_projected\": " << projected << ",\n";
  os << pad << "  \"dims_messy\": " << messy << ",\n";
  os << pad << "  \"dims_unprojected\": " << unprojected << ",\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", rate(messy));
  os << pad << "  \"messy_dim_rate\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", rate(unprojected));
  os << pad << "  \"unprojected_rate\": " << buf << ",\n";
  os << pad << "  \"causes\": {";
  bool first = true;
  for (const auto& [tag, count] : by_kind) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << tag << "\": " << count;
  }
  os << "}\n" << pad << "}";
  return os.str();
}

}  // namespace ara::obs
