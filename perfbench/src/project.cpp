#include "project.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "difftest/generator.hpp"

namespace perfbench {

namespace fs = std::filesystem;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  ara::difftest::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.next();
}

namespace {

/// Renames the generator's fixed names to per-unit ones: procedures `fz_*`
/// become `<prefix>_*`, arrays `aN` / `xN` become `<prefix>_aN` / `<prefix>_xN`.
std::string rename_identifiers(const std::string& text, const std::string& prefix) {
  std::string out;
  out.reserve(text.size() + text.size() / 8);
  std::size_t i = 0;
  while (i < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (!std::isalpha(c) && c != '_') {
      out += text[i++];
      continue;
    }
    std::size_t j = i;
    while (j < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[j])) || text[j] == '_')) {
      ++j;
    }
    const std::string id = text.substr(i, j - i);
    const bool array = id.size() >= 2 && (id[0] == 'a' || id[0] == 'x') &&
                       std::all_of(id.begin() + 1, id.end(),
                                   [](char d) { return std::isdigit(static_cast<unsigned char>(d)); });
    if (id.rfind("fz_", 0) == 0) {
      out += prefix + "_" + id.substr(3);
    } else if (array) {
      out += prefix + "_" + id;
    } else {
      out += id;
    }
    i = j;
  }
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

Project make_project(const fs::path& repo, std::uint64_t seed) {
  Project p;
  const fs::path lu = repo / "workloads" / "lu";
  std::vector<fs::path> files;
  if (fs::is_directory(lu)) {
    for (const auto& e : fs::directory_iterator(lu)) {
      if (e.path().extension() == ".f") files.push_back(e.path());
    }
  }
  if (files.empty()) throw std::runtime_error("no LU sources under " + lu.string());
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    p.units.push_back({f.filename().string(), read_file(f), ara::Language::Fortran});
  }

  const int groups = (kGeneratedUnits + kGroupFanout - 1) / kGroupFanout;
  std::vector<std::string> group_calls(static_cast<std::size_t>(groups));
  for (int u = 0; u < kGeneratedUnits; ++u) {
    ara::difftest::GenOptions g;
    g.seed = mix_seed(seed, static_cast<std::uint64_t>(u));
    g.lang = ara::Language::Fortran;
    const ara::difftest::GeneratedProgram prog = ara::difftest::generate(g);
    char prefix[16];
    std::snprintf(prefix, sizeof prefix, "k%03d", u);
    p.kernels.push_back(p.units.size());
    p.kernel_entries.push_back(rename_identifiers(prog.entry, prefix));
    p.units.push_back({std::string(prefix) + ".f", rename_identifiers(prog.source, prefix),
                       ara::Language::Fortran});
    group_calls[static_cast<std::size_t>(u / kGroupFanout)] +=
        "  call " + p.kernel_entries.back() + "\n";
  }

  std::string driver = "! perfbench driver: calls every group unit\nsubroutine bench_main\n";
  for (int gi = 0; gi < groups; ++gi) {
    char name[16];
    std::snprintf(name, sizeof name, "grp%02d", gi);
    const std::string n = name;
    p.units.push_back({n + ".f",
                       "! perfbench group unit\nsubroutine " + n + "\n" +
                           group_calls[static_cast<std::size_t>(gi)] + "end subroutine " + n + "\n",
                       ara::Language::Fortran});
    driver += "  call " + n + "\n";
  }
  driver += "end subroutine bench_main\n";
  p.units.push_back({"bench_main.f", std::move(driver), ara::Language::Fortran});
  return p;
}

std::string comment_edit(const std::string& text, const std::string& nonce) {
  std::string out = text;
  if (!out.empty() && out.back() != '\n') out += '\n';
  out += "! perfbench edit " + nonce + "\n";
  return out;
}

bool project_self_test(const fs::path& repo, std::uint64_t seed, std::string* why) {
  const auto bytes = [](const Project& p) {
    std::string all;
    for (const auto& u : p.units) all += u.name + '\0' + u.text + '\0';
    return all;
  };
  const std::string a = bytes(make_project(repo, seed));
  if (a != bytes(make_project(repo, seed))) {
    *why = "project generator: same seed produced different bytes";
    return false;
  }
  if (a == bytes(make_project(repo, seed + 1))) {
    *why = "project generator: seeds " + std::to_string(seed) + " and " +
           std::to_string(seed + 1) + " produced identical bytes";
    return false;
  }
  return true;
}

}  // namespace perfbench
