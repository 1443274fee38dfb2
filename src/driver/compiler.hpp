// Compiler driver: the user-facing facade that mirrors the paper's workflow
// (§V-B): compile the application with `-IPA:array_section:array_summary
// -dragon`, producing `.dgn`, `.cfg` and `.rgn` files, then load the project
// in Dragon.
//
//   ara::driver::Compiler cc;
//   cc.add_source("matrix.c", text, Language::C);
//   if (!cc.compile()) { ... cc.diagnostics().render() ... }
//   ipa::AnalysisResult result = cc.analyze();
//   driver::export_dragon_files(cc.program(), result, "out/", "matrix");
#pragma once

#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ipa/analyzer.hpp"
#include "ir/layout.hpp"
#include "ir/program.hpp"
#include "obs/provenance.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"
#include "support/diagnostics.hpp"

namespace ara::driver {

struct CompilerOptions {
  ir::LayoutOptions layout;  // see ir/layout.hpp
};

class Compiler {
 public:
  Compiler();
  explicit Compiler(CompilerOptions opts);

  /// Registers an in-memory source buffer.
  void add_source(std::string name, std::string text, Language lang);

  /// Loads a file from disk through serve::read_source: language chosen by
  /// extension (.c/.h → C; .f/.f90/.for/.f77 → Fortran; anything else falls
  /// back to Fortran with a warning diagnostic). Returns false if the file
  /// cannot be read.
  bool add_file(const std::filesystem::path& path);

  /// Parse + sema + lowering + layout. False on any error diagnostic.
  bool compile();

  /// Runs Algorithm 1 (requires a successful compile()).
  [[nodiscard]] ipa::AnalysisResult analyze(const ipa::AnalyzeOptions& opts = {}) const;

  [[nodiscard]] ir::Program& program() { return *program_; }
  [[nodiscard]] const ir::Program& program() const { return *program_; }
  [[nodiscard]] const DiagnosticEngine& diagnostics() const { return diags_; }

 private:
  CompilerOptions opts_;
  std::unique_ptr<ir::Program> program_;  // stable address for diags_
  DiagnosticEngine diags_;
  bool compiled_ = false;
};

/// Writes <name>.rgn, <name>.dgn and <name>.cfg into `dir` (created if
/// absent), as `-dragon` does — plus <name>.stats.json when telemetry is
/// enabled (obs::set_enabled), whose precision `causes` stay empty: this
/// path captures no cause records. Returns false (with `error` set) on I/O
/// failure.
bool export_dragon_files(const ir::Program& program, const ipa::AnalysisResult& result,
                         const std::filesystem::path& dir, const std::string& name,
                         std::string* error = nullptr);

/// Artifact-level overload shared with the serve engine: writes pre-built
/// rows, project and .cfg text without needing an ipa::AnalysisResult; the
/// .stats.json counts the run's `causes` by kind.
bool export_dragon_files(const std::vector<rgn::RegionRow>& rows, const rgn::DgnProject& project,
                         const std::string& cfg_text, std::span<const obs::ProvRecord> causes,
                         const std::filesystem::path& dir, const std::string& name,
                         std::string* error = nullptr);

}  // namespace ara::driver
