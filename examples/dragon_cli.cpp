// dragon_cli: a console rendition of the Dragon tool. Reproduces the §V-B
// workflow end to end:
//
//   1. compile the application sources with interprocedural array analysis,
//   2. emit the .dgn / .rgn / .cfg files,
//   3. load the .dgn project,
//   4. view the array region analysis data / call graph / source browser.
//
// Usage:
//   dragon_cli [options] <source files...>
//     --scope <proc|@>   show the array analysis table for one scope
//     --find <array>     highlight an array in the table (green in the GUI)
//     --grep <text>      list all source statements mentioning <text>
//     --dot              print the call graph as Graphviz DOT (Fig 11)
//     --cfg <proc>       print the control-flow graph of one procedure
//     --export <dir>     write <dir>/project.{rgn,dgn,cfg}
//     --hotspots         rank arrays by access density
//     --autopar          dependence-test every outermost loop (APO view)
//     --jobs <n>         worker threads for --autopar dependence testing
//     --view <file>      syntax-highlighted listing (use with --find)
//     --interactive      read commands from stdin (the paper's "interactive
//                        system"): scopes | scope <p> | find <a> | grep <t> |
//                        view <f> [<array>] | hotspots | autopar | dot | quit
//
// With no sources, analyzes the bundled NAS-LU workload.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <vector>

#include "cfg/cfg.hpp"
#include "dragon/browser.hpp"
#include "lno/dependence.hpp"
#include "dragon/session.hpp"
#include "driver/compiler.hpp"
#include "support/string_utils.hpp"

namespace {

void add_default_workload(ara::driver::Compiler& cc) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(ARA_WORKLOADS_DIR) / "lu";
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".f") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) cc.add_file(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scope = "@";
  std::string find_array;
  std::string grep_text;
  std::string cfg_proc;
  std::string export_dir;
  std::string view_file;
  bool dot = false;
  bool hotspots = false;
  bool autopar = false;
  bool interactive = false;
  std::size_t jobs = 1;
  std::vector<std::string> sources;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--scope") {
      scope = next();
    } else if (arg == "--find") {
      find_array = next();
    } else if (arg == "--grep") {
      grep_text = next();
    } else if (arg == "--cfg") {
      cfg_proc = next();
    } else if (arg == "--view") {
      view_file = next();
    } else if (arg == "--export") {
      export_dir = next();
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg == "--hotspots") {
      hotspots = true;
    } else if (arg == "--autopar") {
      autopar = true;
    } else if (arg == "--interactive") {
      interactive = true;
    } else if (arg == "--jobs") {
      jobs = static_cast<std::size_t>(std::strtoul(next().c_str(), nullptr, 10));
      if (jobs == 0) jobs = 1;
    } else {
      sources.push_back(arg);
    }
  }

  ara::driver::Compiler cc;
  if (sources.empty()) {
    add_default_workload(cc);
  } else {
    for (const std::string& s : sources) {
      if (!cc.add_file(s)) {
        std::cerr << "dragon_cli: cannot read " << s << "\n";
        return 1;
      }
    }
  }
  if (!cc.compile()) {
    std::cerr << cc.diagnostics().render();
    return 1;
  }
  const ara::ipa::AnalysisResult result = cc.analyze();

  if (!export_dir.empty()) {
    std::string error;
    if (!ara::driver::export_dragon_files(cc.program(), result, export_dir, "project",
                                          &error)) {
      std::cerr << "dragon_cli: " << error << "\n";
      return 1;
    }
    std::cout << "wrote " << export_dir << "/project.{rgn,dgn,cfg}\n";
  }

  ara::dragon::Session session(ara::ipa::dgn_project(cc.program(), result.callgraph, "project"),
                               result.rows);

  if (interactive) {
    ara::dragon::SourceBrowser browser(cc.program());
    std::cout << "dragon> " << std::flush;
    std::string line;
    while (std::getline(std::cin, line)) {
      std::istringstream iss(line);
      std::string cmd, a1, a2;
      iss >> cmd >> a1 >> a2;
      if (cmd == "quit" || cmd == "exit") break;
      if (cmd == "scopes") {
        for (const std::string& s : session.table().scopes()) std::cout << s << '\n';
      } else if (cmd == "scope" && !a1.empty()) {
        std::cout << session.table().render(a1, a2, /*ansi=*/true);
      } else if (cmd == "find" && !a1.empty()) {
        const auto hits = session.table().find(a1);
        std::cout << hits.size() << " rows match '" << a1 << "'\n";
        for (std::size_t i : hits) {
          const auto& r = session.table().rows()[i];
          std::cout << "  " << r.scope << "  " << r.mode << "  " << r.array << "(" << r.lb
                    << ":" << r.ub << ":" << r.stride << ")  line " << r.line << '\n';
        }
      } else if (cmd == "grep" && !a1.empty()) {
        for (const auto& hit : browser.grep(a1)) {
          std::cout << hit.file << ':' << hit.line << ": " << hit.text << '\n';
        }
      } else if (cmd == "view" && !a1.empty()) {
        std::vector<std::uint32_t> marks;
        if (!a2.empty()) {
          for (const auto& hit : browser.grep(a2)) {
            if (hit.file == a1) marks.push_back(hit.line);
          }
        }
        std::cout << browser.listing(a1, marks, /*ansi=*/true, a2);
      } else if (cmd == "hotspots") {
        for (const auto& row : session.table().hotspots(10, /*arrays_only=*/true)) {
          std::cout << "  " << row.scope << "  " << row.array << "  " << row.mode << "  "
                    << row.acc_density << "%\n";
        }
      } else if (cmd == "autopar") {
        for (const auto& loop :
             ara::lno::find_parallel_loops(cc.program(), result.callgraph, jobs)) {
          std::cout << "  " << loop.proc << ':' << loop.line << "  "
                    << ara::lno::to_string(loop.verdict) << '\n';
        }
      } else if (cmd == "dot") {
        std::cout << session.callgraph_dot();
      } else if (!cmd.empty()) {
        std::cout << "commands: scopes | scope <p> [<array>] | find <a> | grep <t> | "
                     "view <f> [<array>] | hotspots | autopar | dot | quit\n";
      }
      std::cout << "dragon> " << std::flush;
    }
    return 0;
  }
  if (dot) {
    std::cout << session.callgraph_dot();
    return 0;
  }
  if (!cfg_proc.empty()) {
    for (const auto& cfg : ara::cfg::build_all(cc.program())) {
      if (ara::iequals(cfg.proc_name(), cfg_proc)) {
        std::cout << cfg.to_dot();
        return 0;
      }
    }
    std::cerr << "dragon_cli: no procedure '" << cfg_proc << "'\n";
    return 1;
  }
  if (!view_file.empty()) {
    ara::dragon::SourceBrowser browser(cc.program());
    std::vector<std::uint32_t> marks;
    if (!find_array.empty()) {
      for (const auto& hit : browser.grep(find_array)) {
        if (hit.file == view_file) marks.push_back(hit.line);
      }
    }
    std::cout << browser.listing(view_file, marks, /*ansi=*/true, find_array);
    return 0;
  }
  if (!grep_text.empty()) {
    ara::dragon::SourceBrowser browser(cc.program());
    for (const auto& hit : browser.grep(grep_text)) {
      std::cout << hit.file << ':' << hit.line << ": " << hit.text << '\n';
    }
    return 0;
  }
  if (autopar) {
    for (const auto& loop :
         ara::lno::find_parallel_loops(cc.program(), result.callgraph, jobs)) {
      std::cout << loop.proc << ':' << loop.line << " do " << loop.index_var << "  "
                << ara::lno::to_string(loop.verdict);
      if (!loop.directive.empty()) std::cout << "  -> insert " << loop.directive;
      if (!loop.detail.empty()) std::cout << "  (" << loop.detail << ')';
      std::cout << '\n';
    }
    return 0;
  }
  if (hotspots) {
    for (const auto& row : session.table().hotspots(15)) {
      std::cout << row.scope << '\t' << row.array << '\t' << row.mode << '\t' << row.acc_density
                << "%\t" << row.references << " refs / " << row.size_bytes << " bytes\n";
    }
    return 0;
  }

  // Default view: the procedure pane plus one scope's table.
  std::cout << "Procedures (" << session.procedure_count() << "):";
  for (const std::string& p : session.procedure_pane()) std::cout << ' ' << p;
  std::cout << "\n\nArray region analysis — scope '" << scope << "'";
  if (!find_array.empty()) std::cout << " (find: " << find_array << ")";
  std::cout << "\n\n" << session.table().render(scope, find_array);
  return 0;
}
