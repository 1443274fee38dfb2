#include "ipa/callgraph.hpp"

#include <algorithm>
#include <map>

#include "ipa/wn_affine.hpp"

namespace ara::ipa {

std::vector<ActualArg> digest_actuals(const ir::WN& call, const ir::SymbolTable& symtab) {
  std::vector<ActualArg> out(call.kid_count());
  for (std::size_t k = 0; k < call.kid_count(); ++k) {
    const ir::WN* parm = call.kid(k);
    if (parm->kid_count() == 0) continue;
    const ir::WN& actual = *parm->kid(0);
    if (is_whole_array(actual, symtab)) {
      out[k].array = actual.st_idx();
    } else {
      out[k].affine = wn_to_affine(actual, symtab);
    }
  }
  return out;
}

CallGraph CallGraph::build(const ir::Program& program) {
  std::vector<CGNode> nodes;
  std::map<ir::StIdx, std::uint32_t> index;
  for (const ir::ProcedureIR& p : program.procedures) {
    CGNode node;
    node.proc_st = p.proc_st;
    node.proc = &p;
    node.file = p.file;
    index[p.proc_st] = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(std::move(node));
  }
  for (CGNode& node : nodes) {
    if (!node.proc->tree) continue;
    node.proc->tree->walk([&](const ir::WN& wn) {
      if (wn.opr() != ir::Opr::Call) return true;
      const auto it = index.find(wn.st_idx());
      if (it != index.end()) {
        node.callsites.push_back(
            CallSite{it->second, wn.linenum(), digest_actuals(wn, program.symtab), {}});
      }
      return true;
    });
  }
  return from_nodes(std::move(nodes));
}

CallGraph CallGraph::from_nodes(std::vector<CGNode> nodes) {
  CallGraph cg;
  cg.nodes_ = std::move(nodes);
  for (std::uint32_t i = 0; i < cg.nodes_.size(); ++i) {
    for (const CallSite& cs : cg.nodes_[i].callsites) {
      if (cs.callee == kNoNode) continue;
      auto& callers = cg.nodes_[cs.callee].callers;
      if (std::find(callers.begin(), callers.end(), i) == callers.end()) callers.push_back(i);
    }
  }
  for (CGNode& n : cg.nodes_) n.is_root = n.callers.empty();

  // Iterative DFS; an edge into a node still on the stack is a back edge
  // (recursion), and its caller is the one that reads a stale summary.
  std::vector<int> state(cg.nodes_.size(), 0);  // 0 new, 1 on the stack, 2 done
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t start = 0; start < cg.nodes_.size(); ++start) {
    if (state[start] != 0) continue;
    state[start] = 1;
    stack.emplace_back(start, 0);
    while (!stack.empty()) {
      const auto [n, edge] = stack.back();
      if (edge == cg.nodes_[n].callsites.size()) {
        state[n] = 2;
        cg.bottom_up_.push_back(n);
        stack.pop_back();
        continue;
      }
      ++stack.back().second;
      const std::uint32_t next = cg.nodes_[n].callsites[edge].callee;
      if (next == kNoNode) continue;
      if (state[next] == 1) {
        cg.nodes_[n].closes_cycle = true;
        cg.has_cycle_ = true;
      } else if (state[next] == 0) {
        state[next] = 1;
        stack.emplace_back(next, 0);
      }
    }
  }
  return cg;
}

std::size_t CallGraph::edge_count() const {
  std::size_t n = 0;
  for (const CGNode& node : nodes_) n += node.callsites.size();
  return n;
}

std::optional<std::uint32_t> CallGraph::find(ir::StIdx proc_st) const {
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].proc_st == proc_st) return i;
  }
  return std::nullopt;
}

std::optional<std::uint32_t> CallGraph::find(std::string_view name,
                                             const ir::Program& program) const {
  const auto st = program.symtab.find_proc(name);
  return st ? find(*st) : std::nullopt;
}

std::vector<std::uint32_t> CallGraph::preorder() const {
  std::vector<std::uint32_t> order;
  std::vector<bool> seen(nodes_.size(), false);
  auto visit = [&](auto&& self, std::uint32_t n) -> void {
    if (n == kNoNode || seen[n]) return;
    seen[n] = true;
    order.push_back(n);
    for (const CallSite& cs : nodes_[n].callsites) self(self, cs.callee);
  };
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_root) visit(visit, i);
  }
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) visit(visit, i);
  return order;
}

}  // namespace ara::ipa
