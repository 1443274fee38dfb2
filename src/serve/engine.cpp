#include "serve/engine.hpp"

#include <chrono>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>

#include <set>

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
              "Unchanged units re-summarized because a dependency changed");
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
/// consumed) into the cache key.
std::string flags_string(const BatchOptions& opts) {
  std::string flags = "ipa=";
  flags += opts.interprocedural ? '1' : '0';
  flags += ";scalars=";
  flags += opts.include_scalars ? '1' : '0';
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
  // shapes sema may resolve otherwise-undeclared references against.
  const fe::GlobalImportTable import_index = build_global_index(sources);

  // Plain batch runs get a throwaway state seeded from the persisted map so
  // `arac --cache-dir` shares the daemon's dependency-aware invalidation.
  std::optional<IncrementalState> local_state;
  if (inc == nullptr && cache.enabled()) {
    local_state.emplace();
    local_state->keep_resident = false;
    local_state->depmap = DepMap::load(opts.cache_dir);
    inc = &*local_state;
  }

  // Serial pre-pass: per-unit lookup keys — text + flags + the import shapes
  // this unit resolved against last run (recorded in the depmap, so the key
  // is computable before compiling) — then the invalidation front: units
  // with no reusable summary, plus every transitive dependent under the
  // reverse dependency closure.
  std::vector<std::string> keys(sources.size());
  std::set<std::string> changed_units;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    std::string key_flags = flags;
    if (sources[i].lang == Language::C && inc != nullptr) {
      if (const UnitDeps* prior = inc->depmap.find(sources[i].name)) {
        key_flags += import_flags(prior->imports, import_index);
      }
    }
    keys[i] =
        SummaryCache::key_for(sources[i].name, sources[i].text, sources[i].lang, key_flags);
    bool reusable = false;
    if (inc != nullptr) {
      const auto it = inc->resident.find(sources[i].name);
      reusable = it != inc->resident.end() && it->second.key == keys[i];
    }
    if (!reusable && cache.enabled()) reusable = cache.contains(keys[i]);
    if (!reusable) changed_units.insert(sources[i].name);
  }
  const std::set<std::string> invalid =
      inc != nullptr ? inc->depmap.dependents_closure(changed_units) : changed_units;
  std::vector<char> forced(sources.size(), 0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    forced[i] = invalid.count(sources[i].name) != 0 &&
                changed_units.count(sources[i].name) == 0;
    if (forced[i]) {
      ++result.invalidated_units;
      stat_invalidated.bump();
    }
  }

  std::vector<std::optional<UnitSummary>> summaries(sources.size());
  std::vector<std::string> store_keys(keys);
  std::vector<std::vector<std::string>> unit_imports(sources.size());
  std::vector<char> resident_hit(sources.size(), 0);
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
    pool.parallel_for(sources.size(), [&](std::size_t i) {
      // Unit spans go to the caller's timeline, and each worker gets its
      // own trace lane, so per-unit spans render as parallel tracks in the
      // Chrome trace instead of one nested stack.
      const obs::TimelineScope on_caller_timeline(timeline);
      obs::set_lane(static_cast<std::uint32_t>(ThreadPool::current_worker()));
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

        const std::string& key = keys[i];
        if (!forced[i]) {
          // Warm in-memory state first (daemon): the summary is reused
          // verbatim, no disk read, no deserialization.
          if (inc != nullptr) {
            const auto it = inc->resident.find(sources[i].name);
            if (it != inc->resident.end() && it->second.key == key) {
              events.record(i, obs::UnitEvent::CacheHit, "resident");
              stat_resident_hits.bump();
              resident_hit[i] = 1;
              report.diagnostics = it->second.summary.diagnostics;
              unit_prov[i] = it->second.summary.provenance;
              for (obs::ProvRecord& p : unit_prov[i]) {
                p.unit = static_cast<std::uint32_t>(i);
              }
              summaries[i] = it->second.summary;
              report.status = UnitStatus::Cached;
              events.record(i, obs::UnitEvent::Summarized, "resident");
              return;
            }
          }
          if (auto hit = cache.load(key)) {
            // Replay the cached unit's rendered warnings byte-identically,
            // so a hit is indistinguishable from a re-analysis on the
            // console.
            events.record(i, obs::UnitEvent::CacheHit);
            report.diagnostics = hit->diagnostics;
            unit_prov[i] = hit->provenance;
            for (obs::ProvRecord& p : unit_prov[i]) p.unit = static_cast<std::uint32_t>(i);
            summaries[i] = std::move(*hit);
            report.status = UnitStatus::Cached;
            events.record(i, obs::UnitEvent::Summarized, "cached");
            return;
          }
        }
        events.record(i, obs::UnitEvent::CacheMiss, forced[i] ? "invalidated" : "");

        if (ARA_FAILPOINT("unit.analyze", sources[i].name)) {
          throw fi::IoFault("injected I/O fault analyzing '" + sources[i].name + "'");
        }

        // Miss (or caching off, or dependency-invalidated): compile this
        // unit alone.
        ir::Program program;
        std::vector<fe::ExternRef> externs;
        bool ok = false;
        {
          obs::ScopedLatency parse_latency(hist_unit_parse);
          ok = compile_unit(sources[i], import_index, program, &report.diagnostics, &externs,
                            &unit_imports[i]);
        }
        if (!ok) {
          fail_unit(report, i, FailureKind::Compile, "unit did not compile", events);
          return;
        }
        stat_units_analyzed.bump();
        {
          obs::ScopedLatency summarize_latency(hist_unit_summarize);
          summaries[i] = summarize_unit(program, externs, unit_imports[i]);
        }
        summaries[i]->diagnostics = report.diagnostics;
        summaries[i]->provenance = unit_prov[i];
        // The store key folds in the shapes actually imported (the lookup
        // key used last run's recorded imports; they agree whenever the text
        // is unchanged, and a changed text misses on the text hash anyway).
        if (sources[i].lang == Language::C && !unit_imports[i].empty()) {
          store_keys[i] = SummaryCache::key_for(
              sources[i].name, sources[i].text, sources[i].lang,
              flags + import_flags(unit_imports[i], import_index));
        }
        if (cache.enabled()) cache.store(store_keys[i], *summaries[i]);
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
    obs::set_lane(0);
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
  }

  // Refresh the dependency map from this run's summaries: per unit, the
  // units defining its called extern procedures plus the units declaring
  // its imported globals. Rebuilt from scratch so removed units drop out;
  // failed units keep their previous edges (conservative — their dependents
  // still invalidate when they change back to life).
  if (inc != nullptr) {
    std::map<std::string, std::string> proc_owner;    // lowercase proc -> unit
    std::map<std::string, std::string> global_owner;  // lowercase global -> unit
    for (std::size_t i = 0; i < summaries.size(); ++i) {
      if (!summaries[i]) continue;
      for (const SymInfo& sym : summaries[i]->symbols) {
        if (sym.kind == SymInfo::Kind::Proc) {
          proc_owner.emplace(to_lower(sym.name), sources[i].name);
        } else if (sym.kind == SymInfo::Kind::Global) {
          global_owner.emplace(to_lower(sym.name), sources[i].name);
        }
      }
    }
    DepMap next;
    for (std::size_t i = 0; i < summaries.size(); ++i) {
      if (!summaries[i]) {
        if (const UnitDeps* prior = inc->depmap.find(sources[i].name)) {
          next.set(sources[i].name, *prior);
        }
        continue;
      }
      UnitDeps deps;
      for (const SymInfo& sym : summaries[i]->symbols) {
        if (sym.kind != SymInfo::Kind::Import) continue;
        const std::string gname = to_lower(sym.name);
        deps.imports.push_back(gname);
        const auto owner = global_owner.find(gname);
        if (owner != global_owner.end()) deps.deps.push_back(owner->second);
      }
      for (const ExternSummary& ext : summaries[i]->externs) {
        const auto owner = proc_owner.find(ext.name);
        if (owner != proc_owner.end()) deps.deps.push_back(owner->second);
      }
      next.set(sources[i].name, std::move(deps));
    }
    inc->depmap = std::move(next);
    if (cache.enabled()) DepMap::store(opts.cache_dir, inc->depmap);
    if (inc->keep_resident) {
      for (std::size_t i = 0; i < summaries.size(); ++i) {
        if (summaries[i]) {
          inc->resident[sources[i].name] = ResidentUnit{store_keys[i], *summaries[i]};
        } else {
          inc->resident.erase(sources[i].name);
        }
      }
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
  lopts.include_scalars = opts.include_scalars;
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
  for (const std::size_t i : linked_indices) events.record(i, obs::UnitEvent::Linked);
  result.events = events.take();
  result.ok = result.failed_units == 0 && result.link.ok;
  result.partial = result.failed_units > 0 && result.link.ok;
  if (result.partial) stat_degraded_runs.bump();
  return result;
}

}  // namespace ara::serve
