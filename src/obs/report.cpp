#include "obs/report.hpp"

#include <cstdio>
#include <map>

#include "support/text_table.hpp"

namespace ara::obs {

namespace {

struct Node {
  std::string name;
  std::uint64_t total_ns = 0;
  std::uint64_t count = 0;
  std::vector<std::size_t> children;  // indices into the node pool
};

/// The span forest merged by path: node identity is (parent node, name), so
/// same-named siblings share one node. Roots and children keep the order of
/// first appearance.
struct PathTree {
  std::vector<Node> pool;
  std::vector<std::size_t> roots;

  [[nodiscard]] std::uint64_t self_ns(std::size_t n) const {
    std::uint64_t child_ns = 0;
    for (const std::size_t c : pool[n].children) child_ns += pool[c].total_ns;
    return pool[n].total_ns > child_ns ? pool[n].total_ns - child_ns : 0;
  }
};

PathTree merge_paths(const std::vector<SpanEvent>& events) {
  PathTree tree;
  // For event i, the pool node it was merged into (to resolve children).
  std::vector<std::size_t> node_of(events.size(), 0);
  std::map<std::pair<std::int64_t, std::string>, std::size_t> index;  // (parent node or -1, name)

  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& ev = events[i];
    const std::int64_t parent_node =
        ev.parent < 0 ? -1 : static_cast<std::int64_t>(node_of[static_cast<std::size_t>(ev.parent)]);
    const auto key = std::make_pair(parent_node, ev.name);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, tree.pool.size()).first;
      tree.pool.push_back(Node{ev.name, 0, 0, {}});
      if (parent_node < 0) {
        tree.roots.push_back(it->second);
      } else {
        tree.pool[static_cast<std::size_t>(parent_node)].children.push_back(it->second);
      }
    }
    Node& node = tree.pool[it->second];
    node.total_ns += ev.dur_ns;
    node.count += 1;
    node_of[i] = it->second;
  }
  return tree;
}

std::string fmt_ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string fmt_pct(std::uint64_t part, std::uint64_t whole) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%",
                whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole));
  return buf;
}

}  // namespace

std::string render_time_report(const std::vector<SpanEvent>& events) {
  const PathTree tree = merge_paths(events);
  std::uint64_t grand_total = 0;
  for (const std::size_t r : tree.roots) grand_total += tree.pool[r].total_ns;

  TextTable table;
  table.set_header({"Phase", "Count", "Total (ms)", "Self (ms)", "% of run"});
  auto emit = [&](auto&& self, std::size_t n, std::size_t depth) -> void {
    const Node& node = tree.pool[n];
    table.add_row({std::string(depth * 2, ' ') + node.name, std::to_string(node.count),
                   fmt_ms(node.total_ns), fmt_ms(tree.self_ns(n)),
                   fmt_pct(node.total_ns, grand_total)});
    for (const std::size_t c : node.children) self(self, c, depth + 1);
  };
  for (const std::size_t r : tree.roots) emit(emit, r, 0);
  return table.render();
}

std::string render_folded(const std::vector<SpanEvent>& events) {
  const PathTree tree = merge_paths(events);
  std::map<std::string, std::uint64_t> self_us;  // path -> weight, bytewise order
  auto walk = [&](auto&& self, std::size_t n, const std::string& parent) -> void {
    const std::string path = parent.empty() ? tree.pool[n].name : parent + ';' + tree.pool[n].name;
    self_us[path] += tree.self_ns(n) / 1000;
    for (const std::size_t c : tree.pool[n].children) self(self, c, path);
  };
  for (const std::size_t r : tree.roots) walk(walk, r, "");
  std::string out;
  for (const auto& [path, us] : self_us) out += path + ' ' + std::to_string(us) + '\n';
  return out;
}

std::string render_stats_table(bool nonzero_only) {
  TextTable table;
  table.set_header({"Counter", "Value", "Description"});
  for (const StatEntry& e : StatsRegistry::instance().snapshot(nonzero_only)) {
    table.add_row({e.name, std::to_string(e.value), e.desc});
  }
  return table.render();
}

}  // namespace ara::obs
