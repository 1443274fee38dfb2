#include "driver/cli.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "daemon/client.hpp"
#include "driver/compiler.hpp"
#include "ir/printer.hpp"
#include "lno/dependence.hpp"
#include "obs/histogram.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/failure.hpp"
#include "serve/globals.hpp"
#include "support/faultinject.hpp"
#include "support/limits.hpp"
#include "support/string_utils.hpp"

namespace ara::driver {

namespace {

namespace fs = std::filesystem;

/// The exit-code contract (every return path funnels through these —
/// documented in docs/robustness.md):
///   0  clean success
///   1  total failure: usage error, unreadable input, no unit survived,
///      link or export error, internal error
///   2  partial success: some units failed but the survivors linked and
///      their results were produced
constexpr int kClean = 0;
constexpr int kFatal = 1;
constexpr int kPartial = 2;

struct CliOptions {
  std::vector<fs::path> sources;
  std::string name;         // export/project base name; default from first source
  std::string export_dir;   // empty = no Dragon export
  std::string trace_file;   // empty = no trace
  std::string metrics_out;  // empty = no --metrics-out report
  std::string events_file;  // empty = derive from --metrics-out
  std::string profile_file;  // empty = no folded span profile
  bool stats = false;
  bool time_report = false;
  bool no_ipa = false;
  bool dump_ir = false;
  bool quiet = false;
  long jobs = 0;          // 0 = flag absent (one worker)
  std::string cache_dir;  // empty = no summary cache
  bool no_cache = false;
  std::string daemon_socket;  // --daemon-connect: analyze via a running arad
  int daemon_retries = 0;     // --retry: extra attempts on shed/severed calls
  std::uint64_t daemon_deadline_ms = 0;  // --deadline-ms: per-request deadline
  std::string failpoints;  // fault-injection spec (--failpoints / ARA_FAILPOINTS)
  support::ResourceLimits limits;  // per-unit resource guards
  bool explain = false;            // render cause records after analysis
  std::string explain_target;      // "array" or "array@proc" filter ("" = all)
  bool explain_loops = false;      // --loops: explain serial loops instead
  std::string provenance_out;      // empty = no .provenance.jsonl export
  /// Flags given that only an in-process run can honour (telemetry, IR and
  /// loop verdicts, unit limits), with why; and flags that only mean
  /// something with --daemon-connect. Either kind is refused in the other
  /// mode instead of being silently dropped.
  std::vector<std::pair<std::string, const char*>> local_only;
  std::vector<std::string> client_only;

  [[nodiscard]] bool telemetry() const {
    return stats || time_report || !trace_file.empty() || !metrics_out.empty() ||
           !events_file.empty() || !profile_file.empty();
  }
  /// Loop verdicts are only computed when someone will read them; they run
  /// extra Fourier–Motzkin work the plain pipeline never did.
  [[nodiscard]] bool want_loops() const {
    return explain || explain_loops || !provenance_out.empty();
  }
};

void usage(std::ostream& out) {
  out << "arac — array region analyzer (OpenARA driver)\n"
         "\n"
         "usage: arac [options] <source files>\n"
         "\n"
         "  --help            this text\n"
         "  --name NAME       project/export base name (default: stem of first source)\n"
         "  --export-dir DIR  write NAME.rgn, NAME.dgn, NAME.cfg into DIR\n"
         "                    (plus NAME.stats.json when telemetry is on)\n"
         "  --stats           print the counter table; write NAME.stats.json\n"
         "  --time-report     print the hierarchical phase time report\n"
         "  --trace FILE      write a Chrome trace-event JSON file\n"
         "                    (load it at ui.perfetto.dev or chrome://tracing)\n"
         "  --metrics-out FILE  write the run ledger (counters + latency\n"
         "                    histogram percentiles, ara.metrics.v1) and the\n"
         "                    event log to FILE's stem + .events.jsonl\n"
         "  --events FILE     write the per-unit lifecycle event log (JSONL,\n"
         "                    ara.events.v1) to an explicit path\n"
         "  --profile FILE    write the span tree's self times (us) into FILE in\n"
         "                    collapsed (flamegraph.pl / speedscope) format\n"
         "  --explain [ARRAY[@PROC]]  after analysis, name the cause of every\n"
         "                    precision loss (messy/unprojected dimension) with\n"
         "                    its source line; optional target filter\n"
         "  --loops           with --explain: report why loops stayed serial,\n"
         "                    citing the blocking dependence pair\n"
         "  --provenance-out FILE  write the cause records as JSONL\n"
         "                    (ara.prov.v1); byte-identical across --jobs\n"
         "                    values and cache states\n"
         "  --no-ipa          skip interprocedural propagation (-IPA off)\n"
         "  --dump-ir         dump each unit's lowered WHIRL trees to stdout\n"
         "  --quiet           suppress the region table and summary\n"
         "  --jobs N          analyze units on N worker threads (default 1;\n"
         "                    output is byte-identical for every N)\n"
         "  --cache-dir DIR   persistent summary cache; unchanged units skip\n"
         "                    parsing and local analysis\n"
         "  --no-cache        ignore the cache for this run (don't read or write)\n"
         "  --daemon-connect SOCKET  send the analysis to a running arad on\n"
         "                    SOCKET instead of analyzing in-process; unchanged\n"
         "                    units replay from the daemon's warm state\n"
         "  --retry N         with --daemon-connect: retry shed (overloaded /\n"
         "                    shutting_down) or severed calls up to N times,\n"
         "                    backing off exponentially with jitter and\n"
         "                    honoring the daemon's retry_after_ms hint\n"
         "  --deadline-ms N   with --daemon-connect: per-request analyze\n"
         "                    deadline; over-deadline units demote to\n"
         "                    structured timeout failures (default: daemon's)\n"
         "\n"
         "robustness (see docs/robustness.md):\n"
         "  --failpoints SPEC     arm fault-injection failpoints (also via the\n"
         "                        ARA_FAILPOINTS environment variable)\n"
         "  --max-depth N         parser recursion-depth cap (default 200)\n"
         "  --max-ast-nodes N     AST nodes per unit cap (default 5000000)\n"
         "  --max-loop-trip N     constant loop trip-count cap (default 1000000000)\n"
         "  --max-arrays N        arrays declared per unit cap (default 10000)\n"
         "  --unit-timeout-ms N   per-unit wall-clock watchdog (default 0 = off)\n"
         "\n"
         "exit codes: 0 success; 1 total failure (usage, no unit survived, link);\n"
         "2 partial success (some units failed, survivors linked); any failed\n"
         "unit is named in NAME.failures.json\n";
}

/// Parses a non-negative integer CLI value; reports through `err`.
/// Plain decimal digits only — strtoull would happily wrap "-3" around.
bool parse_u64(const std::string& flag, const std::string& v, std::uint64_t* out,
               std::ostream& err) {
  const bool digits = !v.empty() && v.find_first_not_of("0123456789") == std::string::npos;
  if (!digits) {
    err << "arac: " << flag << " expects a non-negative integer, got '" << v << "'\n";
    return false;
  }
  *out = std::strtoull(v.c_str(), nullptr, 10);
  return true;
}

bool parse_args(const std::vector<std::string>& args, CliOptions* cli, std::ostream& out,
                std::ostream& err, bool* help) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&](const char* what) -> const std::string* {
      if (i + 1 >= args.size()) {
        err << "arac: " << what << " expects a value\n";
        return nullptr;
      }
      return &args[++i];
    };
    if (a == "--trace" || a == "--metrics-out" || a == "--events" || a == "--profile" ||
        a == "--stats" || a == "--time-report") {
      cli->local_only.emplace_back(a, "the daemon records its telemetry in its own process");
    } else if (a == "--dump-ir" || a == "--loops") {
      cli->local_only.emplace_back(a, "the daemon keeps no IR and computes no loop verdicts");
    } else if (a == "--max-depth" || a == "--max-ast-nodes" || a == "--max-loop-trip" ||
               a == "--max-arrays" || a == "--unit-timeout-ms") {
      cli->local_only.emplace_back(a, "the daemon applies its own unit limits");
    } else if (a == "--retry" || a == "--deadline-ms") {
      cli->client_only.push_back(a);
    }
    if (a == "--help" || a == "-h") {
      usage(out);
      *help = true;
      return true;
    } else if (a == "--name") {
      const std::string* v = next("--name");
      if (v == nullptr) return false;
      cli->name = *v;
    } else if (a == "--export-dir") {
      const std::string* v = next("--export-dir");
      if (v == nullptr) return false;
      cli->export_dir = *v;
    } else if (a == "--trace") {
      const std::string* v = next("--trace");
      if (v == nullptr) return false;
      cli->trace_file = *v;
    } else if (a == "--metrics-out") {
      const std::string* v = next("--metrics-out");
      if (v == nullptr) return false;
      cli->metrics_out = *v;
    } else if (a == "--events") {
      const std::string* v = next("--events");
      if (v == nullptr) return false;
      cli->events_file = *v;
    } else if (a == "--profile") {
      const std::string* v = next("--profile");
      if (v == nullptr) return false;
      cli->profile_file = *v;
    } else if (a == "--stats") {
      cli->stats = true;
    } else if (a == "--time-report") {
      cli->time_report = true;
    } else if (a == "--jobs" || a == "-j") {
      const std::string* v = next("--jobs");
      if (v == nullptr) return false;
      char* end = nullptr;
      cli->jobs = std::strtol(v->c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || cli->jobs < 1) {
        err << "arac: --jobs expects a positive integer, got '" << *v << "'\n";
        return false;
      }
    } else if (a == "--cache-dir") {
      const std::string* v = next("--cache-dir");
      if (v == nullptr) return false;
      cli->cache_dir = *v;
    } else if (a == "--no-cache") {
      cli->no_cache = true;
    } else if (a == "--daemon-connect") {
      const std::string* v = next("--daemon-connect");
      if (v == nullptr) return false;
      cli->daemon_socket = *v;
    } else if (a == "--retry") {
      const std::string* v = next("--retry");
      std::uint64_t n = 0;
      if (v == nullptr || !parse_u64(a, *v, &n, err)) return false;
      cli->daemon_retries = static_cast<int>(n);
    } else if (a == "--deadline-ms") {
      const std::string* v = next("--deadline-ms");
      if (v == nullptr || !parse_u64(a, *v, &cli->daemon_deadline_ms, err)) return false;
    } else if (a == "--failpoints") {
      const std::string* v = next("--failpoints");
      if (v == nullptr) return false;
      cli->failpoints = *v;
    } else if (a == "--max-depth") {
      const std::string* v = next("--max-depth");
      std::uint64_t n = 0;
      if (v == nullptr || !parse_u64(a, *v, &n, err)) return false;
      cli->limits.max_nesting_depth = static_cast<std::uint32_t>(n);
    } else if (a == "--max-ast-nodes") {
      const std::string* v = next("--max-ast-nodes");
      if (v == nullptr || !parse_u64(a, *v, &cli->limits.max_ast_nodes, err)) return false;
    } else if (a == "--max-loop-trip") {
      const std::string* v = next("--max-loop-trip");
      std::uint64_t n = 0;
      if (v == nullptr || !parse_u64(a, *v, &n, err)) return false;
      cli->limits.max_loop_trip = static_cast<std::int64_t>(n);
    } else if (a == "--max-arrays") {
      const std::string* v = next("--max-arrays");
      if (v == nullptr || !parse_u64(a, *v, &cli->limits.max_arrays, err)) return false;
    } else if (a == "--unit-timeout-ms") {
      const std::string* v = next("--unit-timeout-ms");
      std::uint64_t n = 0;
      if (v == nullptr || !parse_u64(a, *v, &n, err)) return false;
      cli->limits.unit_timeout = std::chrono::milliseconds(n);
    } else if (a == "--explain") {
      cli->explain = true;
      // Optional target: the next argument is a filter when it cannot be a
      // source file (no extension dot) or is explicitly "array@proc".
      if (i + 1 < args.size() && !args[i + 1].empty() && args[i + 1][0] != '-' &&
          (args[i + 1].find('@') != std::string::npos ||
           args[i + 1].find('.') == std::string::npos)) {
        cli->explain_target = args[++i];
      }
    } else if (a == "--loops") {
      cli->explain_loops = true;
    } else if (a == "--provenance-out") {
      const std::string* v = next("--provenance-out");
      if (v == nullptr) return false;
      cli->provenance_out = *v;
    } else if (a == "--no-ipa") {
      cli->no_ipa = true;
    } else if (a == "--dump-ir") {
      cli->dump_ir = true;
    } else if (a == "--quiet") {
      cli->quiet = true;
    } else if (!a.empty() && a[0] == '-') {
      err << "arac: unknown option '" << a << "'\n";
      usage(err);
      return false;
    } else {
      cli->sources.emplace_back(a);
    }
  }
  if (cli->sources.empty()) {
    err << "arac: no input files\n";
    usage(err);
    return false;
  }
  if (!cli->daemon_socket.empty() && !cli->local_only.empty()) {
    for (const auto& [flag, why] : cli->local_only) {
      err << "arac: " << flag << " is unavailable with --daemon-connect (" << why << ")\n";
    }
    return false;
  }
  if (cli->daemon_socket.empty() && !cli->client_only.empty()) {
    for (const std::string& flag : cli->client_only) {
      err << "arac: " << flag << " requires --daemon-connect\n";
    }
    return false;
  }
  if (cli->name.empty()) cli->name = cli->sources.front().stem().string();
  return true;
}

bool write_file(const fs::path& path, const std::string& text, std::ostream& err) {
  std::ofstream f(path);
  f << text;
  if (!f) {
    err << "arac: cannot write " << path.string() << "\n";
    return false;
  }
  return true;
}

/// The pass behind --dump-ir and the loop verdicts, over the units that
/// survived the batch. Each is compiled alone, by the engine's own unit
/// compile and under the unit limits, since the engine keeps no IR (and a
/// cached unit was never compiled). A loop that stays serial becomes a
/// LoopNotParallel record under the unit's index, numbered on from the
/// unit's own records: it sorts after them and before the next unit's.
/// Verdicts stay out of the summaries and the cache: they cost more than
/// the unit's compile and summary together, and only these flags read them.
void recompile_units(const CliOptions& cli, const std::vector<serve::SourceBuffer>& sources,
                     serve::BatchResult& result, std::ostream& out) {
  ARA_SPAN("recompile", "driver");
  const fe::GlobalImportTable globals = serve::build_global_index(sources);
  std::vector<std::uint32_t> next_seq(sources.size(), 0);
  for (const obs::ProvRecord& r : result.provenance) {
    if (r.unit < sources.size()) next_seq[r.unit] = std::max(next_seq[r.unit], r.seq + 1);
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (result.units[i].status == serve::UnitStatus::Failed) continue;
    const support::LimitScope guard(cli.limits);
    ir::Program program;
    std::string diagnostics;
    if (!serve::compile_unit(sources[i], globals, program, &diagnostics)) continue;
    if (cli.dump_ir) out << ir::dump_program(program);
    if (!cli.want_loops()) continue;
    for (const lno::LoopAnalysis& la :
         lno::find_parallel_loops(program, ipa::CallGraph::build(program))) {
      if (la.verdict == lno::LoopVerdict::Parallelizable) continue;
      obs::ProvRecord rec;
      rec.unit = static_cast<std::uint32_t>(i);
      rec.seq = next_seq[i]++;
      rec.kind = obs::CauseKind::LoopNotParallel;
      rec.proc = la.proc;
      rec.array = la.dep_array;
      rec.file = sources[i].name;
      rec.line = la.line;
      rec.detail = "loop over '" + la.index_var + "' stayed serial: " + la.detail;
      if (la.dep_line_a != 0) {
        rec.detail += " (DEF at line " + std::to_string(la.dep_line_a) +
                      " conflicts with the reference at line " +
                      std::to_string(la.dep_line_b) + ")";
      }
      result.provenance.push_back(std::move(rec));
    }
  }
  // Each unit's verdicts were appended after every unit's records: put them
  // in export order.
  obs::sort_provenance(result.provenance);
}

/// Every in-process run: the batch engine's parallel per-unit analysis
/// (one worker without --jobs), the summary cache when --cache-dir names
/// one, and the serial link. `result` keeps the run's cause records and
/// lifecycle events for the caller's renderers.
int run_local(const CliOptions& cli, serve::BatchResult& result, std::ostream& out,
              std::ostream& err) {
  std::vector<serve::SourceBuffer> sources;
  for (const fs::path& src : cli.sources) {
    std::string warning;
    std::optional<serve::SourceBuffer> buf = serve::read_source(src, &warning);
    if (!buf.has_value()) {
      err << "arac: cannot read " << src.string() << "\n";
      return kFatal;
    }
    if (!warning.empty()) err << "warning: " << warning << "\n";
    sources.push_back(std::move(*buf));
  }

  serve::BatchOptions bopts;
  bopts.jobs = cli.jobs > 0 ? static_cast<std::size_t>(cli.jobs) : 1;
  bopts.cache_dir = cli.cache_dir;
  bopts.use_cache = !cli.no_cache;
  bopts.interprocedural = !cli.no_ipa;
  bopts.limits = cli.limits;
  result = serve::run_batch(sources, bopts, cli.name);

  // Unit diagnostics come back in input order regardless of which worker
  // produced them; link diagnostics (duplicate definitions, unresolved
  // externs) follow.
  for (const serve::UnitReport& unit : result.units) {
    if (!unit.diagnostics.empty()) err << unit.diagnostics;
  }
  const std::string link_diags = result.link.diags.render();
  if (!link_diags.empty()) err << link_diags;

  const int rc = result.ok ? kClean : (result.partial ? kPartial : kFatal);

  // Failed units: one console line each, plus the machine-readable
  // NAME.failures.json (into the export dir if given, else the cwd).
  if (result.failed_units > 0) {
    for (const serve::UnitReport& unit : result.units) {
      if (unit.status != serve::UnitStatus::Failed || !unit.failure) continue;
      err << "arac: unit '" << unit.source_name << "' failed ("
          << serve::to_string(unit.failure->kind) << "): " << unit.failure->reason << "\n";
    }
    const fs::path dir = cli.export_dir.empty() ? fs::path(".") : fs::path(cli.export_dir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path report = dir / (cli.name + ".failures.json");
    write_file(report, serve::write_failures_json(cli.name, result.units, rc), err);
    err << "arac: " << result.failed_units << " of " << result.units.size()
        << " units failed; see " << report.string() << "\n";
  }
  if (rc == kFatal) return rc;

  if (cli.dump_ir || cli.want_loops()) recompile_units(cli, sources, result, out);

  if (!cli.quiet) {
    out << cli.name << ": " << result.link.project.procedures.size() << " procedures, "
        << result.link.project.edges.size() << " call edges, " << result.link.rows.size()
        << " region rows";
    if (result.partial) {
      out << " (partial: " << result.failed_units << " units dropped)";
    }
    out << "\n";
    out << rgn::render_table(result.link.rows);
    if (!bopts.cache_dir.empty() && bopts.use_cache) {
      out << "cache: " << result.cache_hits << " hits, " << result.cache_misses << " misses\n";
    }
  }

  if (!cli.export_dir.empty()) {
    std::string error;
    if (!export_dragon_files(result.link.rows, result.link.project, result.link.cfg_text,
                             result.provenance, cli.export_dir, cli.name, &error)) {
      err << "arac: " << error << "\n";
      return kFatal;
    }
    if (!cli.quiet) {
      out << "wrote " << (fs::path(cli.export_dir) / cli.name).string() << ".{rgn,dgn,cfg"
          << (cli.telemetry() ? ",stats.json" : "") << "}\n";
    }
  }
  return rc;
}

/// `--daemon-connect`: ship the sources to a running arad (ara.rpc.v1) and
/// render its answers — the same console output, exports and 0/1/2 exit
/// contract as an in-process run, but unchanged units replay from the
/// daemon's warm state instead of being re-analyzed.
int run_daemon_client(const CliOptions& cli, std::ostream& out, std::ostream& err) {
  std::vector<serve::SourceBuffer> sources;
  for (const fs::path& src : cli.sources) {
    std::string warning;
    std::optional<serve::SourceBuffer> buf = serve::read_source(src, &warning);
    if (!buf.has_value()) {
      err << "arac: cannot read " << src.string() << "\n";
      return kFatal;
    }
    if (!warning.empty()) err << "warning: " << warning << "\n";
    sources.push_back(std::move(*buf));
  }

  daemon::DaemonClient client;
  std::string cerror;
  if (!client.connect(cli.daemon_socket, &cerror)) {
    err << "arac: " << cerror << "\n";
    return kFatal;
  }

  std::ostringstream params;
  params << "{\"project\":\"" << json::escape(cli.name) << "\",\"sources\":[";
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (i != 0) params << ',';
    params << "{\"name\":\"" << json::escape(sources[i].name) << "\",\"lang\":\""
           << (sources[i].lang == Language::C ? "c" : "fortran") << "\",\"text\":\""
           << json::escape(sources[i].text) << "\"}";
  }
  params << "]";
  if (!cli.cache_dir.empty()) {
    params << ",\"cache_dir\":\"" << json::escape(cli.cache_dir) << "\"";
  }
  if (cli.no_cache) params << ",\"use_cache\":false";
  if (cli.jobs > 0) params << ",\"jobs\":" << cli.jobs;
  if (cli.daemon_deadline_ms > 0) params << ",\"deadline_ms\":" << cli.daemon_deadline_ms;
  params << ",\"ipa\":" << (cli.no_ipa ? "false" : "true") << "}";

  // --retry N = N extra attempts past the first; jitter is seeded per
  // process so concurrent aracs retrying the same shed decorrelate.
  daemon::RetryOptions retry;
  retry.backoff.attempts = cli.daemon_retries + 1;
  retry.seed = static_cast<std::uint64_t>(::getpid());

  const std::optional<daemon::RpcReply> reply =
      client.call_retry("analyze", params.str(), retry);
  if (!reply.has_value()) {
    err << "arac: lost connection to the daemon mid-analysis\n";
    return kFatal;
  }
  if (!reply->ok) {
    if (!reply->code.empty()) {
      err << "arac: daemon: " << reply->error << " (code " << reply->code << ")\n";
    } else {
      err << "arac: daemon: " << reply->error << "\n";
    }
    return kFatal;
  }

  const json::Value& r = reply->result;
  auto num = [&r](std::string_view key) -> std::uint64_t {
    const json::Value* v = r.find(key);
    return (v != nullptr && v->is_number()) ? static_cast<std::uint64_t>(v->number) : 0;
  };
  auto flag = [&r](std::string_view key) {
    const json::Value* v = r.find(key);
    return v != nullptr && v->is_bool() && v->boolean;
  };
  if (const json::Value* diags = r.find("diagnostics");
      diags != nullptr && diags->is_string() && !diags->string.empty()) {
    err << diags->string;
  }
  const int rc = flag("ok") ? kClean : (flag("partial") ? kPartial : kFatal);
  if (num("failed_units") > 0) {
    err << "arac: daemon: " << num("failed_units") << " of " << num("units")
        << " units failed\n";
  }
  if (rc == kFatal) return rc;

  // One request per artifact the caller asked for; everything is served
  // from the snapshot the analyze call published.
  auto fetch = [&](const char* artifact) -> std::optional<std::string> {
    const std::optional<daemon::RpcReply> q = client.call_retry(
        "query",
        "{\"project\":\"" + json::escape(cli.name) + "\",\"artifact\":\"" + artifact +
            "\"}",
        retry);
    if (!q.has_value() || !q->ok) return std::nullopt;
    const json::Value* text = q->result.find("text");
    if (text == nullptr || !text->is_string()) return std::nullopt;
    return text->string;
  };

  if (!cli.quiet) {
    out << cli.name << ": " << num("rows") << " region rows (daemon generation "
        << num("generation") << ")";
    if (rc == kPartial) out << " (partial: " << num("failed_units") << " units dropped)";
    out << "\n";
    if (const std::optional<std::string> table = fetch("table")) out << *table;
    out << "cache: " << num("cache_hits") << " hits (" << num("resident_hits")
        << " resident), " << num("cache_misses") << " misses, "
        << num("invalidated_units") << " invalidated\n";
  }

  int final_rc = rc;
  if (!cli.export_dir.empty()) {
    std::error_code ec;
    fs::create_directories(cli.export_dir, ec);
    for (const char* ext : {"rgn", "dgn", "cfg"}) {
      const std::optional<std::string> text = fetch(ext);
      if (!text.has_value() ||
          !write_file(fs::path(cli.export_dir) / (cli.name + "." + ext), *text, err)) {
        err << "arac: cannot fetch ." << ext << " from the daemon\n";
        return kFatal;
      }
    }
    if (!cli.quiet) {
      out << "wrote " << (fs::path(cli.export_dir) / cli.name).string() << ".{rgn,dgn,cfg}\n";
    }
  }
  if (!cli.provenance_out.empty()) {
    const std::optional<std::string> text = fetch("provenance");
    if (!text.has_value() || !write_file(cli.provenance_out, *text, err)) final_rc = kFatal;
  }
  if (cli.explain) {
    const std::optional<daemon::RpcReply> q = client.call_retry(
        "explain",
        "{\"project\":\"" + json::escape(cli.name) + "\",\"target\":\"" +
            json::escape(cli.explain_target) + "\"}",
        retry);
    if (q.has_value() && q->ok) {
      if (const json::Value* text = q->result.find("text");
          text != nullptr && text->is_string()) {
        out << text->string;
      }
    }
  }
  return final_rc;
}

/// Disarms fault injection when the invocation that armed it returns, so
/// injected faults can't leak into a later in-process run_arac call.
struct FaultInjectScope {
  ~FaultInjectScope() { fi::disarm(); }
};

}  // namespace

int run_arac(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  CliOptions cli;
  bool help = false;
  if (!parse_args(args, &cli, out, err, &help)) return kFatal;
  if (help) return kClean;

  // Fault injection: the environment arms first, then an explicit
  // --failpoints replaces it. A malformed spec is a usage error.
  const FaultInjectScope fi_scope;
  std::string fi_error;
  if (!fi::configure_from_env(&fi_error)) {
    err << "arac: bad ARA_FAILPOINTS: " << fi_error << "\n";
    return kFatal;
  }
  if (!cli.failpoints.empty() && !fi::configure(cli.failpoints, &fi_error)) {
    err << "arac: bad --failpoints: " << fi_error << "\n";
    return kFatal;
  }

  // Client mode: the daemon does the analysis (and owns the telemetry for
  // it); this process only renders answers.
  if (!cli.daemon_socket.empty()) {
    try {
      return run_daemon_client(cli, out, err);
    } catch (const std::exception& e) {
      err << "arac: internal error: " << e.what() << "\n";
      return kFatal;
    }
  }

  const bool was_enabled = obs::enabled();
  if (cli.telemetry()) {
    obs::set_enabled(true);
    obs::StatsRegistry::instance().reset();
    obs::HistogramRegistry::instance().reset();
    obs::Timeline::instance().clear();
  }

  // The single error sink: every failure mode lands here and maps onto the
  // 0/1/2 contract. A unit's own failures never reach it (the engine demotes
  // them); a cap tripped while recompiling a unit for its loop verdicts
  // does. The catch-all exists so an internal bug exits 1 with a message
  // instead of an abort.
  int rc = kClean;
  serve::BatchResult result;
  try {
    rc = run_local(cli, result, out, err);
  } catch (const support::ResourceLimitError& e) {
    err << "arac: resource limit exceeded: " << e.what() << "\n";
    rc = kFatal;
  } catch (const std::exception& e) {
    err << "arac: internal error: " << e.what() << "\n";
    rc = kFatal;
  }
  if (rc == kFatal) {
    obs::set_enabled(was_enabled);
    return rc;
  }

  // Provenance rendering, from the engine's per-unit and link records plus
  // the loop verdicts.
  if (cli.explain_loops) {
    out << obs::render_explain(result.provenance, cli.explain_target, /*loops_only=*/true);
  }
  if (cli.explain) {
    out << obs::render_explain(result.provenance, cli.explain_target, /*loops_only=*/false);
  }
  if (!cli.provenance_out.empty() &&
      !write_file(cli.provenance_out, obs::write_provenance_jsonl(result.provenance, cli.name),
                  err)) {
    rc = 1;
  }

  // Telemetry rendering happens after the run returned, so every span is
  // closed before the report/trace snapshot.
  if (cli.stats) {
    out << obs::render_stats_table(/*nonzero_only=*/true);
    // Without an export dir the stats file lands next to the caller.
    if (cli.export_dir.empty() &&
        !write_file(cli.name + ".stats.json", obs::write_stats_json(cli.name, result.provenance),
                    err)) {
      rc = 1;
    }
  }
  if (cli.time_report) {
    out << obs::render_time_report(obs::Timeline::instance().completed());
  }
  if (!cli.trace_file.empty() &&
      !write_file(cli.trace_file, obs::write_chrome_trace(obs::Timeline::instance().completed()),
                  err)) {
    rc = 1;
  }
  if (!cli.metrics_out.empty() &&
      !write_file(cli.metrics_out, obs::write_metrics_json(cli.name, result.provenance), err)) {
    rc = 1;
  }
  // The lifecycle event log: an explicit --events path wins; otherwise a
  // --metrics-out run derives `<stem>.events.jsonl` so the full ledger
  // comes from one flag.
  std::string events_path = cli.events_file;
  if (events_path.empty() && !cli.metrics_out.empty()) {
    fs::path p(cli.metrics_out);
    p.replace_extension();
    events_path = p.string() + ".events.jsonl";
  }
  if (!events_path.empty() &&
      !write_file(events_path, obs::write_events_jsonl(result.events, cli.name), err)) {
    rc = 1;
  }
  if (!cli.profile_file.empty() &&
      !write_file(cli.profile_file,
                  obs::render_folded(obs::Timeline::instance().completed()), err)) {
    rc = 1;
  }

  obs::set_enabled(was_enabled);
  return rc;
}

}  // namespace ara::driver
