// Analysis provenance ledger: lightweight cause records attached at every
// point where the array analysis loses precision or rules out a
// transformation — a Bound::Messy dimension, an Unprojected extent, a loop
// that stayed serial. The runtime ledger (PR 3/6) explains the *process*;
// this one explains the *semantics*: `arac --explain` renders the records,
// `.provenance.jsonl` exports them (ara.prov.v1), and the precision section
// of .stats.json aggregates them so arareport can diff precision across
// runs the same way it diffs latency.
//
// Capture model. Recording goes through a thread-local *sink* installed
// with an RAII ProvSink: no sink, no work — the dormant cost is one
// thread-local load and a predicted branch (the same contract the stats
// counters honor, gated by bench_obs_overhead). Serve
// workers install a sink per unit so records land in the UnitSummary and
// ride the v3 summary cache; warm-cache runs replay them byte-identically.
// The export order is (unit, seq) — input order, then capture order within
// the unit — so the export never depends on the worker count, the lane, or
// the cache state. The records belong to the run that captured them
// (serve::BatchResult::provenance, a daemon snapshot); nothing keeps them
// past it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ara::obs {

/// Why one dimension / region / loop lost precision. Tags are stable serde
/// identifiers (cache v3 + ara.prov.v1); never renumber or rename.
enum class CauseKind : std::uint8_t {
  NonAffineSubscript,    // subscript not affine in the loop/symbolic vars
  SubscriptedSubscript,  // subscript contains an array element read
  NonAffineLoopBound,    // enclosing loop bound not affine -> dim demoted
  UnknownExtent,         // assumed-size / undeclared extent (Unprojected)
  UnresolvedCall,        // call to a procedure no unit provided
  FmUnprojected,         // Fourier-Motzkin projection failed to bound a dim
  ActualNotAffine,       // call actual not affine -> formal subst poisoned
  CalleeLocalEscape,     // callee-local symbol in a translated bound
  CalleeImprecision,     // callee summary already messy at the call site
  UnionWidening,         // region list hit kMaxRegions -> constant hull
  UnionDrop,             // region list hit kMaxRegions -> oldest dropped
  LimitDemotion,         // resource/limit barrier demoted the whole unit
  LoopNotParallel,       // dependence analysis kept a loop serial
  RecursionWidening,     // recursive propagation did not converge -> declared extent
};

/// Stable snake_case tag used by the cache entry and the JSONL export.
[[nodiscard]] std::string_view to_string(CauseKind kind);
/// Human-readable phrase for --explain ("non-affine subscript", ...).
[[nodiscard]] std::string_view describe(CauseKind kind);
/// Parses a serde tag; false leaves `*out` untouched.
[[nodiscard]] bool cause_from_string(std::string_view tag, CauseKind* out);

/// Sentinel unit for records emitted by the serial link phase; sorts after
/// every real unit and renders as "link" in the JSONL export.
inline constexpr std::uint32_t kLinkUnit = 0xffffffffu;

/// One cause record. `unit` is the translation-unit input index (0 under a
/// whole-program ProvSink, kLinkUnit for link-phase records); `seq` is the
/// capture order within the unit — together they are the deterministic
/// merge key. `dim` is the 0-based dimension index, -1 when the cause is
/// not about one dimension (calls, loops, whole-unit demotions).
struct ProvRecord {
  std::uint32_t unit = 0;
  std::uint32_t seq = 0;
  CauseKind kind = CauseKind::NonAffineSubscript;
  std::string proc;    // enclosing procedure (source spelling; may be "")
  std::string array;   // array / symbol / callee name (may be "")
  std::int32_t dim = -1;
  std::string file;    // source file name (may be "")
  std::uint32_t line = 0;
  std::string detail;  // cause-specific free text
  friend bool operator==(const ProvRecord&, const ProvRecord&) = default;
};

/// Attribution a deep callee cannot know: who was being analyzed when the
/// precision was lost. Views must outlive the prov_record call.
struct ProvCtx {
  std::string_view proc;
  std::string_view array;
  std::string_view file;
  std::uint32_t line = 0;
};

namespace detail {
struct ProvSinkState {
  std::vector<ProvRecord>* out = nullptr;
  std::uint32_t unit = 0;
  std::uint32_t seq = 0;
};
// constinit: both are constant-initialized, so other translation units read
// the TLS slot directly instead of through GCC's TLS init wrapper; through
// the wrapper, an ASan+UBSan build reported a null member access in
// prov_capturing().
extern constinit thread_local ProvSinkState t_prov_sink;
extern constinit thread_local const ProvCtx* t_prov_ctx;
}  // namespace detail

/// True while a ProvSink is installed on this thread. Sites that build a
/// detail string should test this first so the dormant path stays at one
/// load + branch.
[[nodiscard]] inline bool prov_capturing() { return detail::t_prov_sink.out != nullptr; }

/// Appends one record to the thread's sink (no-op without one). `seq` and
/// `unit` are assigned by the sink.
void prov_record(CauseKind kind, const ProvCtx& ctx, std::int32_t dim = -1,
                 std::string_view detail = {});

/// Like prov_record but using the innermost ambient ProvScope context;
/// no-op when no scope is installed. For callees with no usable signature
/// hook (ModeRegions::merge, ConvexRegion::to_region).
void prov_record_ambient(CauseKind kind, std::int32_t dim = -1, std::string_view detail = {});

/// RAII capture scope: while alive, prov_record() on this thread appends to
/// `*out` with the given unit index. Scopes nest (the previous sink is
/// restored on destruction).
class ProvSink {
 public:
  ProvSink(std::vector<ProvRecord>* out, std::uint32_t unit);
  ~ProvSink();
  ProvSink(const ProvSink&) = delete;
  ProvSink& operator=(const ProvSink&) = delete;

 private:
  detail::ProvSinkState saved_;
};

/// RAII ambient-attribution scope for prov_record_ambient. Nested scopes
/// shadow; destruction restores the outer one.
class ProvScope {
 public:
  explicit ProvScope(ProvCtx ctx);
  ~ProvScope();
  ProvScope(const ProvScope&) = delete;
  ProvScope& operator=(const ProvScope&) = delete;

 private:
  ProvCtx ctx_;
  const ProvCtx* saved_;
};

/// Puts records in the export order, (unit, seq), by one stable sort: the
/// order of every renderer below, whatever order the records were captured
/// or appended in (worker count, cache state, loop verdicts added after the
/// batch).
void sort_provenance(std::vector<ProvRecord>& records);

/// `--explain` console rendering: cause records, one line each with their
/// source position. `target` filters by "array" or "array@proc"
/// (case-insensitive, like the language); `loops_only` flips between the
/// precision-loss section and the serial-loop section. Shared by the arac
/// driver and the daemon's `explain` method.
[[nodiscard]] std::string render_explain(const std::vector<ProvRecord>& records,
                                         const std::string& target, bool loops_only);

/// ara.prov.v1: one header object, then one compact object per record. No
/// timestamps, no lanes — byte-identical across --jobs values and cache
/// states by construction.
[[nodiscard]] std::string write_provenance_jsonl(const std::vector<ProvRecord>& records,
                                                 std::string_view run_name);

/// The "precision" JSON section shared by .stats.json (ara.stats.v2) and
/// --metrics-out (ara.metrics.v1): dimension counters from the stats
/// registry plus causes-by-kind counts of the run's `causes`. `indent` is
/// the number of leading spaces on each emitted line.
[[nodiscard]] std::string render_precision_json(int indent, std::span<const ProvRecord> causes);

}  // namespace ara::obs
