#include "serve/project.hpp"

#include "obs/provenance.hpp"
#include "rgn/region_row.hpp"
#include "support/string_utils.hpp"

namespace ara::serve {

std::shared_ptr<const ProjectSnapshot> ProjectState::analyze(
    const std::vector<SourceBuffer>& sources, const BatchOptions& opts) {
  const std::lock_guard<std::mutex> analyzing(analyze_mu_);
  BatchResult result = run_batch(sources, opts, name_, &inc_);

  auto snap = std::make_shared<ProjectSnapshot>();
  snap->ok = result.ok;
  snap->partial = result.partial;
  snap->generation = ++generation_;
  snap->units = std::move(result.units);
  snap->cache_hits = result.cache_hits;
  snap->cache_misses = result.cache_misses;
  snap->resident_hits = result.resident_hits;
  snap->invalidated_units = result.invalidated_units;
  snap->failed_units = result.failed_units;
  if (result.ok || result.partial) {
    snap->rgn_text = rgn::write_rgn(result.link.rows);
    snap->dgn_text = rgn::write_dgn(result.link.project);
    snap->cfg_text = result.link.cfg_text;
    snap->rows = std::move(result.link.rows);
    // Rows come grouped by array within a scope, so a name is lowered once
    // per run of rows, not once per row.
    std::vector<std::uint32_t>* run = nullptr;
    for (std::uint32_t i = 0; i < snap->rows.size(); ++i) {
      if (run == nullptr || snap->rows[i].array != snap->rows[i - 1].array) {
        run = &snap->rows_by_array[to_lower(snap->rows[i].array)];
      }
      run->push_back(i);
    }
    // Export order, (unit, seq): run_batch already emits it that way, the
    // sort pins the contract.
    obs::sort_provenance(result.provenance);
    snap->provenance_jsonl = obs::write_provenance_jsonl(result.provenance, name_);
    snap->provenance = std::move(result.provenance);
  }
  snap->link_diagnostics = result.link.diags.render();
  snap->resident_bytes = inc_.resident_bytes() + snap->rgn_text.size() +
                         snap->dgn_text.size() + snap->cfg_text.size() +
                         snap->provenance_jsonl.size() +
                         snap->rows.size() * (sizeof(rgn::RegionRow) + 96) +
                         snap->rows.size() * sizeof(std::uint32_t) +
                         snap->rows_by_array.size() * (sizeof(std::string) + 64) +
                         snap->provenance.size() * (sizeof(obs::ProvRecord) + 48);

  {
    const std::lock_guard<std::mutex> publishing(snap_mu_);
    snapshot_ = snap;
  }
  return snap;
}

std::shared_ptr<const ProjectSnapshot> ProjectState::snapshot() const {
  const std::lock_guard<std::mutex> reading(snap_mu_);
  return snapshot_;
}

std::size_t ProjectState::resident_bytes() const {
  const std::shared_ptr<const ProjectSnapshot> snap = snapshot();
  return snap != nullptr ? snap->resident_bytes : 0;
}

}  // namespace ara::serve
