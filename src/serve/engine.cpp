#include "serve/engine.hpp"

#include <chrono>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <utility>

#include "frontend/compile.hpp"
#include "obs/provenance.hpp"
#include "obs/histogram.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "serve/cache.hpp"
#include "serve/globals.hpp"
#include "serve/threadpool.hpp"
#include "support/faultinject.hpp"
#include "support/string_utils.hpp"

namespace ara::serve {

ARA_STATISTIC(stat_batch_units, "serve.units", "Translation units submitted to the batch engine");
ARA_STATISTIC(stat_units_analyzed, "serve.units_analyzed",
              "Units that went through the full frontend + local analysis");
ARA_STATISTIC(stat_unit_failures, "serve.unit_failures",
              "Units demoted to a UnitFailure by the per-unit error barrier");
ARA_STATISTIC(stat_degraded_runs, "serve.degraded_runs",
              "Batches that linked in degraded mode (some units dropped)");
ARA_STATISTIC(stat_invalidated, "serve.invalidated_units",
              "Units re-summarized because a global they import changed shape");
ARA_STATISTIC(stat_resident_hits, "serve.resident_hits",
              "Summaries reused from warm in-memory state (no disk cache read)");

ARA_HISTOGRAM(hist_queue_wait, "serve.queue_wait_ns",
              "Per-unit wait between batch submission and a worker picking it up", "ns");
ARA_HISTOGRAM(hist_unit_parse, "serve.unit_parse_ns",
              "Per-unit frontend compile (parse + lower) latency", "ns");
ARA_HISTOGRAM(hist_unit_summarize, "serve.unit_summarize_ns",
              "Per-unit local analysis + summary extraction latency", "ns");

std::string_view to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::Compile: return "compile";
    case FailureKind::Resource: return "resource";
    case FailureKind::Timeout: return "timeout";
    case FailureKind::Io: return "io";
    case FailureKind::Crash: return "crash";
  }
  return "crash";
}

namespace {

/// Folds every option that changes a unit's summary (or how it may be
/// consumed) into the cache key. `scalars=1` is a retired option's value,
/// kept in the bytes so entries stored by earlier builds still hit.
std::string flags_string(const BatchOptions& opts) {
  std::string flags = "ipa=";
  flags += opts.interprocedural ? '1' : '0';
  flags += ";scalars=1";
  return flags;
}

/// One batch's lifecycle events, recorded only when telemetry is on. Each
/// unit has its own slot, written only by whoever owns the unit at that
/// stage (the caller before and after the pool, the unit's task in
/// between), so recording takes no lock and the slots need no sort.
class UnitEvents {
 public:
  explicit UnitEvents(const std::vector<SourceBuffer>& sources)
      : sources_(sources), slots_(obs::enabled() ? sources.size() : 0) {}

  void record(std::size_t unit, obs::UnitEvent event, std::string_view detail = {}) {
    if (slots_.empty()) return;
    const auto t = std::chrono::steady_clock::now() - start_;
    slots_[unit].push_back(
        {static_cast<std::uint32_t>(unit), sources_[unit].name, event, obs::lane(),
         static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t).count()),
         std::string(detail)});
  }

  /// Every unit's events, in unit order.
  [[nodiscard]] std::vector<obs::EventRecord> take() {
    std::vector<obs::EventRecord> out;
    for (std::vector<obs::EventRecord>& slot : slots_) {
      out.insert(out.end(), std::make_move_iterator(slot.begin()),
                 std::make_move_iterator(slot.end()));
    }
    return out;
  }

 private:
  const std::vector<SourceBuffer>& sources_;
  const std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  std::vector<std::vector<obs::EventRecord>> slots_;
};

/// Demotes a unit to Failed with a structured reason, and drops a
/// zero-length "fail:<unit>" span into the trace so degraded runs are
/// visible on the timeline.
void fail_unit(UnitReport& report, std::size_t unit, FailureKind kind, std::string reason,
               UnitEvents& events) {
  report.status = UnitStatus::Failed;
  report.failure = UnitFailure{kind, std::move(reason)};
  stat_unit_failures.bump();
  events.record(unit, obs::UnitEvent::Failed, to_string(kind));
  obs::Span marker("fail:" + report.source_name, "failure");
}

}  // namespace

std::optional<SourceBuffer> read_source(const std::filesystem::path& path,
                                        std::string* warning) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  SourceBuffer src;
  src.name = path.filename().string();
  src.text = buf.str();
  const std::string ext = to_lower(path.extension().string());
  if (ext == ".c" || ext == ".h") {
    src.lang = Language::C;
  } else {
    src.lang = Language::Fortran;
    if (ext != ".f" && ext != ".f90" && ext != ".for" && ext != ".f77" &&
        warning != nullptr) {
      *warning = "unrecognized extension '" + ext + "' on '" + src.name +
                 "'; assuming Fortran";
    }
  }
  return src;
}

bool compile_unit(const SourceBuffer& source, const fe::GlobalImportTable& globals,
                  ir::Program& program, std::string* diagnostics,
                  std::vector<fe::ExternRef>* externs, std::vector<std::string>* imports) {
  program.sources.add(source.name, source.text, source.lang);
  DiagnosticEngine diags(&program.sources);
  fe::CompileOptions copts;
  copts.external_calls = true;
  copts.imports = globals.empty() ? nullptr : &globals;
  const bool ok = fe::compile_program(program, diags, copts, externs, imports);
  *diagnostics = diags.render();
  return ok;
}

std::size_t IncrementalState::resident_bytes() const {
  // Deliberately rough: strings dominate a UnitSummary's footprint, so the
  // estimate sums the big blobs plus a fixed per-record overhead.
  std::size_t total = 0;
  for (const auto& [unit_name, res] : resident) {
    total += unit_name.size() + res.key.size() + sizeof(ResidentUnit);
    const UnitSummary& s = res.summary;
    total += s.source_name.size() + s.cfg_text.size() + s.diagnostics.size();
    total += s.symbols.size() * (sizeof(SymInfo) + 24);
    for (const ProcSummary& p : s.procs) {
      total += sizeof(ProcSummary);
      total += p.records.size() * (sizeof(RecordSummary) + 64);
      total += p.effects.size() * (sizeof(EffectSummary) + 64);
      total += p.callsites.size() * (sizeof(CallSummary) + 32);
    }
    total += s.externs.size() * sizeof(ExternSummary);
    total += s.provenance.size() * (sizeof(obs::ProvRecord) + 48);
  }
  return total;
}

BatchResult run_batch(const std::vector<SourceBuffer>& sources, const BatchOptions& opts,
                      const std::string& name) {
  return run_batch(sources, opts, name, nullptr);
}

BatchResult run_batch(const std::vector<SourceBuffer>& sources, const BatchOptions& opts,
                      const std::string& name, IncrementalState* inc) {
  UnitEvents events(sources);
  ARA_SPAN("batch", "serve");
  BatchResult result;
  result.units.resize(sources.size());

  const SummaryCache cache(opts.cache_dir, opts.use_cache && !opts.cache_dir.empty());
  const std::string flags = flags_string(opts);

  // Cross-unit global-declaration import (scoped v1: C units only): the
  // shapes sema may resolve otherwise-undeclared references against. A
  // summary is reused only if it imported exactly these shapes.
  const fe::GlobalImportTable import_index = build_global_index(sources);

  // Warm state: the previous run's summaries leave `inc` now, and each
  // unit takes at most one of them by name, so two sources with one name
  // never share a summary. What a unit reuses it moves, what it cannot it
  // drops; after the link `inc` gets exactly the summaries this run linked.
  // An exception escaping in between leaves `inc` empty.
  std::vector<std::map<std::string, ResidentUnit>::node_type> previous(sources.size());
  if (inc != nullptr) {
    std::map<std::string, ResidentUnit> resident = std::exchange(inc->resident, {});
    for (std::size_t i = 0; i < sources.size(); ++i) {
      previous[i] = resident.extract(sources[i].name);
    }
  }

  std::vector<std::optional<UnitSummary>> summaries(sources.size());
  std::vector<std::string> keys(sources.size());
  std::vector<char> resident_hit(sources.size(), 0);
  std::vector<char> invalidated(sources.size(), 0);
  std::vector<std::string> texts(sources.size());
  // Per-unit provenance capture. Always on — records must land in the
  // summary (and the cache) even when this run doesn't render them, so a
  // later warm-cache --explain replays them byte-identically.
  std::vector<std::vector<obs::ProvRecord>> unit_prov(sources.size());

  for (std::size_t i = 0; i < sources.size(); ++i) events.record(i, obs::UnitEvent::Queued);

  {
    ARA_SPAN("units", "serve");
    const auto submitted = std::chrono::steady_clock::now();
    obs::Timeline& timeline = obs::Timeline::current();
    ThreadPool pool(opts.jobs);
    const bool inline_run = pool.size() == 1;
    pool.parallel_for(sources.size(), [&](std::size_t i) {
      // Unit spans go to the caller's timeline, and each pool worker gets
      // its own trace lane (1..N; an inline run keeps the caller's), so
      // per-unit spans render as parallel tracks in the Chrome trace
      // instead of one nested stack.
      const obs::TimelineScope on_caller_timeline(timeline);
      if (!inline_run) {
        obs::set_lane(static_cast<std::uint32_t>(ThreadPool::current_worker() + 1));
      }
      if (obs::enabled()) {
        hist_queue_wait.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - submitted)
                .count()));
      }
      events.record(i, obs::UnitEvent::Started);
      obs::Span unit_span(sources[i].name, "serve");
      stat_batch_units.bump();

      UnitReport& report = result.units[i];
      report.source_name = sources[i].name;
      texts[i] = sources[i].text;
      obs::ProvSink prov_sink(&unit_prov[i], static_cast<std::uint32_t>(i));

      // Error barrier: nothing one unit does — a hostile input tripping a
      // resource cap, the watchdog, an I/O fault real or injected, or a
      // plain bug throwing — may take down the batch. Every failure mode
      // becomes a structured UnitFailure and the link proceeds without it.
      try {
        const support::LimitScope guard(opts.limits);

        // The key covers the unit's own name, language and text and the
        // analysis flags: no other unit's summary feeds this one. The one
        // cross-unit input, the shapes a C unit imported, is checked on
        // every reuse instead.
        keys[i] = SummaryCache::key_for(sources[i].name, sources[i].text, sources[i].lang,
                                        flags);
        bool stale = false;
        const auto current = [&](const UnitSummary& summary) {
          if (imports_current(summary, import_index)) return true;
          stale = true;
          return false;
        };
        // Warm in-memory state first (daemon): the unit's entry is reused
        // verbatim, no disk read, no deserialization, no copy, or else
        // dropped. Its provenance is copied: the summary keeps it for the
        // next run.
        if (auto entry = std::move(previous[i]); !entry.empty() && entry.mapped().key == keys[i] &&
                                                 current(entry.mapped().summary)) {
          UnitSummary& resident = entry.mapped().summary;
          events.record(i, obs::UnitEvent::CacheHit, "resident");
          stat_resident_hits.bump();
          resident_hit[i] = 1;
          report.diagnostics = resident.diagnostics;
          unit_prov[i] = resident.provenance;
          for (obs::ProvRecord& p : unit_prov[i]) p.unit = static_cast<std::uint32_t>(i);
          summaries[i] = std::move(resident);
          report.status = UnitStatus::Cached;
          events.record(i, obs::UnitEvent::Summarized, "resident");
          return;
        }
        if (auto hit = cache.load(keys[i], current)) {
          // Replay the cached unit's rendered warnings byte-identically, so
          // a hit is indistinguishable from a re-analysis on the console.
          events.record(i, obs::UnitEvent::CacheHit);
          report.diagnostics = hit->diagnostics;
          unit_prov[i] = hit->provenance;
          for (obs::ProvRecord& p : unit_prov[i]) p.unit = static_cast<std::uint32_t>(i);
          summaries[i] = std::move(*hit);
          report.status = UnitStatus::Cached;
          events.record(i, obs::UnitEvent::Summarized, "cached");
          return;
        }
        invalidated[i] = stale ? 1 : 0;
        events.record(i, obs::UnitEvent::CacheMiss, stale ? "invalidated" : "");

        if (ARA_FAILPOINT("unit.analyze", sources[i].name)) {
          throw fi::IoFault("injected I/O fault analyzing '" + sources[i].name + "'");
        }

        // Miss (or caching off, or stale imports): compile this unit alone.
        ir::Program program;
        std::vector<fe::ExternRef> externs;
        std::vector<std::string> imports;
        bool ok = false;
        {
          obs::ScopedLatency parse_latency(hist_unit_parse);
          ok = compile_unit(sources[i], import_index, program, &report.diagnostics, &externs,
                            &imports);
        }
        if (!ok) {
          fail_unit(report, i, FailureKind::Compile, "unit did not compile", events);
          return;
        }
        stat_units_analyzed.bump();
        {
          obs::ScopedLatency summarize_latency(hist_unit_summarize);
          summaries[i] = summarize_unit(program, externs, imports);
        }
        summaries[i]->diagnostics = report.diagnostics;
        summaries[i]->provenance = unit_prov[i];
        if (cache.enabled()) cache.store(keys[i], *summaries[i]);
        report.status = UnitStatus::Analyzed;
        events.record(i, obs::UnitEvent::Summarized);
      } catch (const support::TimeoutError& e) {
        fail_unit(report, i, FailureKind::Timeout, e.what(), events);
      } catch (const support::ResourceLimitError& e) {
        fail_unit(report, i, FailureKind::Resource, e.what(), events);
      } catch (const fi::IoFault& e) {
        fail_unit(report, i, FailureKind::Io, e.what(), events);
      } catch (const std::bad_alloc&) {
        fail_unit(report, i, FailureKind::Resource, "out of memory analyzing unit", events);
      } catch (const std::exception& e) {
        fail_unit(report, i, FailureKind::Crash, e.what(), events);
      } catch (...) {
        fail_unit(report, i, FailureKind::Crash, "unknown exception analyzing unit", events);
      }
      // A failed unit never contributes to the link, even if the exception
      // escaped mid-summarization.
      if (report.status == UnitStatus::Failed) {
        summaries[i].reset();
        // Records captured before the failure depend on where the barrier
        // struck; keep only the demotion cause so the export stays
        // deterministic (cross-ref: the UnitFailure in .failures.json).
        unit_prov[i].clear();
        obs::ProvRecord demote;
        demote.unit = static_cast<std::uint32_t>(i);
        demote.kind = obs::CauseKind::LimitDemotion;
        demote.file = report.source_name;
        demote.detail = std::string(to_string(report.failure->kind)) + ": " +
                        report.failure->reason;
        unit_prov[i].push_back(std::move(demote));
      }
    });
  }

  for (std::size_t i = 0; i < result.units.size(); ++i) {
    const UnitReport& r = result.units[i];
    if (r.status == UnitStatus::Failed) ++result.failed_units;
    if (r.status == UnitStatus::Cached) {
      ++result.cache_hits;
      if (resident_hit[i] != 0) ++result.resident_hits;
    } else {
      ++result.cache_misses;
    }
    if (invalidated[i] != 0) {
      ++result.invalidated_units;
      stat_invalidated.bump();
    }
  }

  // Link the survivors (everyone, in the clean case), keeping texts
  // parallel to the summaries so diagnostics and the browser still line up.
  std::vector<UnitSummary> units;
  std::vector<std::string> unit_texts;
  std::vector<std::size_t> linked_indices;
  units.reserve(summaries.size());
  unit_texts.reserve(summaries.size());
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    if (!summaries[i]) continue;
    units.push_back(std::move(*summaries[i]));
    unit_texts.push_back(std::move(texts[i]));
    linked_indices.push_back(i);
  }
  if (units.empty() && !sources.empty()) {  // total failure
    result.events = events.take();
    return result;
  }

  LinkOptions lopts;
  lopts.interprocedural = opts.interprocedural;
  lopts.degraded = result.failed_units > 0;
  lopts.layout = opts.layout;
  std::vector<obs::ProvRecord> link_prov;
  {
    const obs::ProvSink link_sink(&link_prov, obs::kLinkUnit);
    result.link = link_units(units, unit_texts, lopts, name);
  }
  for (std::vector<obs::ProvRecord>& up : unit_prov) {
    result.provenance.insert(result.provenance.end(), std::make_move_iterator(up.begin()),
                             std::make_move_iterator(up.end()));
  }
  result.provenance.insert(result.provenance.end(),
                           std::make_move_iterator(link_prov.begin()),
                           std::make_move_iterator(link_prov.end()));
  if (inc != nullptr) {
    for (std::size_t k = 0; k < linked_indices.size(); ++k) {
      const std::size_t i = linked_indices[k];
      inc->resident.insert_or_assign(sources[i].name,
                                     ResidentUnit{std::move(keys[i]), std::move(units[k])});
    }
  }
  for (const std::size_t i : linked_indices) events.record(i, obs::UnitEvent::Linked);
  result.events = events.take();
  result.ok = result.failed_units == 0 && result.link.ok;
  result.partial = result.failed_units > 0 && result.link.ok;
  if (result.partial) stat_degraded_runs.bump();
  return result;
}

}  // namespace ara::serve
