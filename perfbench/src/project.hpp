// The seeded benchmark project: the 20 NAS-LU units of workloads/lu, plus
// generated Fortran kernels (difftest::generate, one program per unit, with
// every procedure and array renamed to a per-unit prefix so names are
// unique project-wide), plus small "group" units that each call ~8 kernel
// entries, plus one driver unit calling every group. A one-line edit to a
// kernel therefore invalidates that unit and the chain above it — group,
// then driver — the shape LU's own call tree has.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace perfbench {

inline constexpr int kGeneratedUnits = 200;
inline constexpr int kGroupFanout = 8;

struct Project {
  std::vector<ara::serve::SourceBuffer> units;  // LU, kernels, groups, driver
  std::vector<std::size_t> kernels;             // indices of the generated kernel units
  std::vector<std::string> kernel_entries;      // entry procedure of each kernel (parallel)
};

/// Builds the project for `seed`; the LU sources are read from
/// `repo`/workloads/lu. Throws std::runtime_error when they are missing.
[[nodiscard]] Project make_project(const std::filesystem::path& repo, std::uint64_t seed);

/// `text` with a trailing comment carrying `nonce`: a comment-only edit, so
/// the analysis result is unchanged while the unit's cache key is new.
[[nodiscard]] std::string comment_edit(const std::string& text, const std::string& nonce);

/// The generator's determinism contract: the same seed gives identical
/// bytes, a different seed different bytes. False (with `why`) otherwise.
[[nodiscard]] bool project_self_test(const std::filesystem::path& repo, std::uint64_t seed,
                                     std::string* why);

/// A splitmix-style mix of a run seed and a stream index, so every derived
/// choice (kernel seeds, edit targets, query targets) is seed-determined.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
