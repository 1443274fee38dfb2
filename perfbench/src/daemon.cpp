#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#include "daemon/client.hpp"
#include "daemon/server.hpp"
#include "difftest/generator.hpp"
#include "layers.hpp"
#include "obs/histogram.hpp"
#include "obs/provenance.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dm = ara::daemon;
namespace json = ara::json;

constexpr const char* kSocket = "arad.sock";  // relative to the work directory
constexpr int kExplainPct = 15;               // explain share of the read traffic
/// The skew of the read targets is an assumption: no log of real `arad`
/// queries exists. 0.8 lies inside the 0.64-0.83 range Breslau et al.
/// measured for web page requests ("Web Caching and Zipf-like
/// Distributions", INFOCOM 1999), borrowed for want of a study of queries
/// to an analysis tool.
constexpr double kZipfExponent = 0.8;
constexpr double kEditPeriodS = 1.0;
constexpr std::size_t kReplayedQueries = 200;
constexpr double kFailedLatencyMs = 1e9;  // a failed request misses any latency limit
/// A generator whose tail lateness on its own account (its connection was
/// idle, yet the request went out late) exceeds this has fallen behind its
/// schedule, and the run is invalid. Well above the host's occasional
/// 10–30 ms scheduling stalls of single requests.
constexpr double kMaxOwnLateMs = 50.0;

/// Expected replies, computed from the verified rows and provenance. Array
/// i is the i-th most popular target of the Zipf draw (a seeded order).
struct Expected {
  std::vector<std::string> arrays;
  std::vector<std::vector<ara::rgn::RegionRow>> rows;
  std::vector<std::string> table;
  std::vector<std::string> explain;
  std::vector<std::string> query_params;
  std::vector<std::string> explain_params;
  std::vector<double> zipf_cdf;

  [[nodiscard]] std::size_t draw(ara::difftest::Rng& rng) const {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    return static_cast<std::size_t>(std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
                                    zipf_cdf.begin());
  }
};

Expected expected_replies(const Verified& v, std::uint64_t seed) {
  std::map<std::string, std::vector<ara::rgn::RegionRow>> by_array;
  for (const ara::rgn::RegionRow& r : v.rows) by_array[ara::to_lower(r.array)].push_back(r);
  Expected e;
  for (auto& [name, rows] : by_array) {
    e.arrays.push_back(name);
    e.rows.push_back(std::move(rows));
  }
  ara::difftest::Rng rng(mix_seed(seed, std::uint64_t{3} << 32));
  for (std::size_t i = e.arrays.size(); i > 1; --i) {
    const std::size_t j = rng.next() % i;
    std::swap(e.arrays[i - 1], e.arrays[j]);
    std::swap(e.rows[i - 1], e.rows[j]);
  }
  double total = 0;
  for (std::size_t i = 0; i < e.arrays.size(); ++i) {
    const std::string& a = e.arrays[i];
    e.table.push_back(ara::rgn::render_table(e.rows[i]));
    e.explain.push_back(ara::obs::render_explain(v.provenance, a, false));
    e.query_params.push_back("{\"project\":\"bench\",\"array\":\"" + json::escape(a) + "\"}");
    e.explain_params.push_back("{\"project\":\"bench\",\"target\":\"" + json::escape(a) + "\"}");
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    e.zipf_cdf.push_back(total);
  }
  for (double& c : e.zipf_cdf) c /= total;
  return e;
}

/// The analyze request for the current sources; one unit's JSON fragment
/// is rebuilt per edit.
class AnalyzeRequest {
 public:
  AnalyzeRequest(const std::vector<ara::serve::SourceBuffer>& units, std::size_t jobs)
      : jobs_(jobs) {
    for (const auto& u : units) fragments_.push_back(fragment(u.name, u.text));
  }
  void set(const ara::serve::SourceBuffer& unit, std::size_t index) {
    fragments_[index] = fragment(unit.name, unit.text);
  }
  [[nodiscard]] std::string params() const {
    std::string out = "{\"project\":\"bench\",\"jobs\":" + std::to_string(jobs_) + ",\"sources\":[";
    for (std::size_t i = 0; i < fragments_.size(); ++i) {
      if (i > 0) out += ',';
      out += fragments_[i];
    }
    return out + "]}";
  }

 private:
  static std::string fragment(const std::string& name, const std::string& text) {
    return "{\"name\":\"" + json::escape(name) + "\",\"lang\":\"fortran\",\"text\":\"" +
           json::escape(text) + "\"}";
  }
  std::size_t jobs_;
  std::vector<std::string> fragments_;
};

double reply_number(const dm::RpcReply& r, std::string_view key) {
  const json::Value* v = r.result.find(key);
  return v != nullptr && v->is_number() ? v->number : -1.0;
}

std::string reply_text(const dm::RpcReply& r) {
  const json::Value* v = r.result.find("text");
  return v != nullptr && v->is_string() ? v->string : std::string();
}

/// Read connections of the open loop; one more connection is the editor's.
std::size_t read_connections(const RunContext& ctx) { return std::max<std::size_t>(1, ctx.jobs - 1); }

struct DaemonState {
  std::unique_ptr<Verified> v;
  Expected expected;
  std::vector<ara::serve::SourceBuffer> current;  // sources with the edits so far
  std::unique_ptr<AnalyzeRequest> request;
  std::unique_ptr<dm::DaemonServer> server;
  std::uint64_t edits = 0;
};

std::unique_ptr<DaemonState> start_daemon(const RunContext& ctx, Tally& tally) {
  auto s = std::make_unique<DaemonState>();
  s->v = build_and_verify(ctx, tally, "");
  s->expected = expected_replies(*s->v, ctx.seed);
  s->current = s->v->project.units;
  s->request = std::make_unique<AnalyzeRequest>(s->current, ctx.jobs);
  dm::DaemonOptions opts;
  opts.socket_path = kSocket;
  opts.jobs = read_connections(ctx) + 1;
  opts.analyze_jobs = ctx.jobs;
  opts.max_resident_mb = 0;  // one project; nothing to evict
  s->server = std::make_unique<dm::DaemonServer>(opts);
  std::string error;
  if (!s->server->start(&error)) throw std::runtime_error("cannot start daemon: " + error);
  dm::DaemonClient client;
  if (!client.connect(kSocket, &error)) throw std::runtime_error("cannot connect: " + error);
  const std::optional<dm::RpcReply> r = client.call("analyze", s->request->params());
  tally.check(r.has_value() && r->ok &&
                  reply_number(*r, "rows") == static_cast<double>(s->v->rows.size()),
              "daemon's first analyze did not reproduce the verified rows");
  return s;
}

/// Runs a load-generator thread body; an exception escaping it becomes a
/// counted failure instead of terminating the process.
template <class F>
std::thread guarded_thread(Tally& tally, F body) {
  return std::thread([&tally, body = std::move(body)] {
    try {
      body();
    } catch (const std::exception& e) {
      tally.fail(std::string("load generator thread: ") + e.what());
    }
  });
}

/// One read request as the generator saw it.
struct ReadSample {
  double latency_ms = 0;   // reply time minus due time
  double service_ms = 0;   // reply time minus send time
  double own_late_ms = 0;  // send time minus max(due, connection free)
  bool query = false;
};

struct EditSample {
  double ms = 0;
  dm::RpcReply reply;
};

struct LoopResult {
  std::vector<ReadSample> reads;
  std::vector<EditSample> edits;
  double cpu_s = 0;  // process CPU seconds (daemon, editor, generator) over the loop
};

/// The open loop at `rate` for `seconds`, plus the closed-loop editor.
/// `phase` selects an independent seeded request stream. `on_first_edit`
/// runs on the editor thread right after the first edit's reply.
LoopResult open_loop(const RunContext& ctx, DaemonState& s, double rate, double seconds,
                     std::uint64_t phase, Tally& tally,
                     const std::function<void()>& on_first_edit) {
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  const std::size_t conns = read_connections(ctx);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(k) / rate));
  };
  const Clock::time_point end = due(n);
  std::vector<std::vector<ReadSample>> per_conn(conns);
  LoopResult out;
  const double cpu0 = process_cpu_s();

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.push_back(guarded_thread(tally, [&, c] {
      dm::DaemonClient client;
      std::string error;
      const bool connected = client.connect(kSocket, &error);
      Clock::time_point free_at = start;
      for (std::size_t k = c; k < n; k += conns) {
        ara::difftest::Rng rng(mix_seed(ctx.seed, (std::uint64_t{4} << 32) + (phase << 28) + k));
        const bool explain = static_cast<int>(rng.next() % 100) < kExplainPct;
        const std::size_t target = s.expected.draw(rng);
        const Clock::time_point d = due(k);
        std::this_thread::sleep_until(d);
        const Clock::time_point sent = Clock::now();
        std::optional<dm::RpcReply> reply;
        if (connected) {
          reply = explain ? client.call("explain", s.expected.explain_params[target])
                          : client.call("query", s.expected.query_params[target]);
        }
        const Clock::time_point done = Clock::now();
        const bool ok = reply.has_value() && reply->ok &&
                        reply_text(*reply) == (explain ? s.expected.explain[target]
                                                       : s.expected.table[target]);
        tally.check(ok, std::string(explain ? "explain" : "query") + " for '" +
                            s.expected.arrays[target] + "' did not match the verified rows" +
                            (connected ? "" : " (no connection: " + error + ")"));
        ReadSample r;
        r.latency_ms = ok ? ms_between(d, done) : kFailedLatencyMs;
        r.service_ms = ms_between(sent, done);
        r.own_late_ms = ms_between(std::max(d, free_at), sent);
        r.query = !explain;
        per_conn[c].push_back(r);
        free_at = done;
      }
    }));
  }
  threads.push_back(guarded_thread(tally, [&] {
    dm::DaemonClient client;
    std::string error;
    if (!client.connect(kSocket, &error)) {
      tally.fail("editor cannot connect: " + error);
      return;
    }
    for (std::uint64_t e = 0; Clock::now() < end; ++e) {
      const Clock::time_point t0 = Clock::now();
      const std::uint64_t id = s.edits++;
      const auto& kernels = s.v->project.kernels;
      const std::size_t k = kernels[mix_seed(ctx.seed, (std::uint64_t{5} << 32) + (phase << 28) + e) %
                                    kernels.size()];
      s.current[k].text = comment_edit(s.current[k].text, std::to_string(id));
      s.request->set(s.current[k], k);
      std::optional<dm::RpcReply> reply = client.call("analyze", s.request->params());
      EditSample es;
      es.ms = ms_since(t0);
      const bool ok = reply.has_value() && reply->ok &&
                      reply_number(*reply, "rows") == static_cast<double>(s.v->rows.size()) &&
                      reply_number(*reply, "failed_units") == 0;
      tally.check(ok, "edit analyze " + std::to_string(id) + " failed");
      if (reply.has_value()) es.reply = std::move(*reply);
      out.edits.push_back(std::move(es));
      if (e == 0 && on_first_edit) on_first_edit();
      std::this_thread::sleep_until(
          std::min(end, t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kEditPeriodS))));
    }
  }));
  for (std::thread& t : threads) t.join();
  out.cpu_s = process_cpu_s() - cpu0;
  for (const auto& v : per_conn) out.reads.insert(out.reads.end(), v.begin(), v.end());

  Samples late;
  for (const ReadSample& r : out.reads) late.add(r.own_late_ms);
  tally.check(late.tail().value <= kMaxOwnLateMs,
              "load generator fell behind its schedule (late tail " +
                  std::to_string(late.tail().value) + " ms): run invalid");
  return out;
}

Samples read_latency(const LoopResult& r) {
  Samples s;
  for (const ReadSample& x : r.reads) s.add(x.latency_ms);
  return s;
}

/// Mean wall time of `f` over `reps` calls.
template <class F>
double mean_ms(int reps, F f) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < reps; ++i) f(i);
  return ms_since(t0) / reps;
}

void traced_side_measurements(const RunContext& ctx, DaemonState& s, const LoopResult& b,
                              LayerMetrics& m, Tally& tally) {
  // handle_line on recorded query lines (no socket), and render_table on
  // the same queries' rows.
  ara::difftest::Rng rng(mix_seed(ctx.seed, std::uint64_t{6} << 32));
  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < kReplayedQueries; ++i) targets.push_back(s.expected.draw(rng));
  std::vector<std::string> lines;
  for (const std::size_t t : targets) {
    lines.push_back("{\"id\":1,\"method\":\"query\",\"params\":" + s.expected.query_params[t] + "}");
  }
  std::size_t bad = 0;
  m.daemon_handle_query_ms = mean_ms(static_cast<int>(lines.size()), [&](int i) {
    bad += s.server->handle_line(lines[static_cast<std::size_t>(i)]).find("\"ok\":true") ==
           std::string::npos;
  });
  tally.check(bad == 0, "replayed query lines failed");
  m.rgn_render_table_ms = mean_ms(static_cast<int>(targets.size()), [&](int i) {
    (void)ara::rgn::render_table(s.expected.rows[targets[static_cast<std::size_t>(i)]]);
  });
  const std::string analyze_line =
      "{\"id\":1,\"method\":\"analyze\",\"params\":" + s.request->params() + "}";
  m.daemon_request_parse_ms = mean_ms(3, [&](int) { (void)json::parse(analyze_line); });
  m.rgn_write_ms = mean_ms(3, [&](int) { (void)ara::rgn::write_rgn(s.v->rows); });

  double service = 0, queries = 0;
  Samples late;
  for (const ReadSample& r : b.reads) {
    late.add(r.own_late_ms);
    if (!r.query) continue;
    service += r.service_ms;
    ++queries;
  }
  m.daemon_transport_ms = queries > 0 ? service / queries - m.daemon_handle_query_ms : 0.0;
  m.loadgen_late_tail_ms = late.tail().value;

  dm::DaemonClient client;
  std::string error;
  std::optional<dm::RpcReply> status;
  if (client.connect(kSocket, &error)) status = client.call("status", "{}");
  tally.check(status.has_value() && status->ok, "daemon status request failed");
  if (status.has_value() && status->ok) {
    m.daemon_request_errors = reply_number(*status, "request_errors");
    if (const json::Value* o = status->result.find("overload"); o != nullptr) {
      const json::Value* shed = o->find("shed_requests");
      m.daemon_shed_requests = shed != nullptr ? shed->number : 0.0;
    }
    if (const json::Value* lat = status->result.find("latency"); lat != nullptr) {
      if (const json::Value* a = lat->find("daemon.analyze_ns"); a != nullptr) {
        const json::Value* p50 = a->find("p50");
        m.daemon_analyze_ms = p50 != nullptr ? p50->number / 1e6 : 0.0;
      }
    }
  }
  for (const auto& h : ara::obs::HistogramRegistry::instance().snapshot(true)) {
    if (h.name == "daemon.queue_depth") m.daemon_queue_depth_max = static_cast<double>(h.max);
  }

  if (!b.edits.empty()) {
    const dm::RpcReply& first = b.edits.front().reply;
    m.serve_cache_hits = reply_number(first, "cache_hits");
    m.serve_cache_misses = reply_number(first, "cache_misses");
    m.serve_invalidated_units = reply_number(first, "invalidated_units");
  }

  // Busy time per read request: the RPC path and rendering per read, plus
  // the edits' analyze time spread over the reads that ran beside them.
  const double reads = static_cast<double>(b.reads.size());
  const double edit_ms = b.edits.empty() ? 0.0 : m.daemon_analyze_ms * b.edits.size() / reads;
  const double edit_write_ms = b.edits.empty() ? 0.0 : m.rgn_write_ms * b.edits.size() / reads;
  const double query_share = reads > 0 ? queries / reads : 0.0;
  m.busy_ms["daemon"] = (m.daemon_handle_query_ms - m.rgn_render_table_ms + m.daemon_transport_ms) +
                        m.daemon_request_parse_ms * b.edits.size() / std::max(1.0, reads);
  m.busy_ms["rgn"] = m.rgn_render_table_ms * query_share + edit_write_ms;
  m.busy_ms["serve"] = std::max(0.0, edit_ms - edit_write_ms);
}

void print_loop(const RunContext& ctx, const char* what, double rate, const LoopResult& r) {
  Samples edits, late;
  for (const EditSample& e : r.edits) edits.add(e.ms);
  for (const ReadSample& x : r.reads) late.add(x.own_late_ms);
  std::printf("%s: open loop at %.0f req/s over %zu connections, %zu reads, %zu edits\n", what,
              rate, read_connections(ctx), r.reads.size(), r.edits.size());
  describe("edit analyze (closed loop)", edits, "ms");
  describe("generator's own lateness", late, "ms");
}

}  // namespace

void run_daemon(const RunContext& ctx, double rate, Tally& tally, Result& result) {
  EndToEnd e2e;
  auto s = repeated_setup([&] { return start_daemon(ctx, tally); }, &e2e.setup_s);
  if (!ctx.trace) {
    const LoopResult r = open_loop(ctx, *s, rate, ctx.seconds, 0, tally, nullptr);
    print_loop(ctx, "daemon", rate, r);
    e2e.latency_ms = read_latency(r);
    // Replies per CPU-second of the whole process: the open loop fixes the
    // reply rate, so replies per wall second would only echo it.
    e2e.ops = static_cast<double>(r.reads.size());
    e2e.busy_s = r.cpu_s;
    add_end_to_end(e2e, result);
  } else {
    LayerMetrics m;
    const LoopResult a = open_loop(ctx, *s, rate, ctx.seconds / 2, 0, tally, nullptr);
    ara::obs::set_enabled(true);
    ara::obs::HistogramRegistry::instance().reset();
    reset_counters();
    const LoopResult b =
        open_loop(ctx, *s, rate, ctx.seconds / 2, 1, tally, [&] { read_counters(m); });
    traced_side_measurements(ctx, *s, b, m, tally);
    ara::obs::set_enabled(false);
    m.overhead_ratio = read_latency(b).median() / read_latency(a).median();
    print_loop(ctx, "daemon (traced)", rate, b);
    add_layer_metrics(m, result);
  }
  s->server->stop();
}

}  // namespace perfbench
