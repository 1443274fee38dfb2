// The IPA call graph: "each node in this graph represents a procedure and
// the caller-callee relationships are expressed by the edges. This call
// graph should be traversed to extract the necessary array analysis
// information" (§IV-A). Each node carries the procedure's symbol-table
// handle and, when built from WHIRL, its tree (Fig 4 / Algorithm 1). Call
// sites carry their actual arguments already digested for formal->actual
// translation, so interprocedural propagation needs no WHIRL: the serve
// engine's link phase builds the same graph from unit summaries.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/program.hpp"
#include "regions/linexpr.hpp"

namespace ara::ipa {

/// Callee slot of a call whose target is not in the graph (only in a
/// degraded link, where the defining unit failed to analyze).
inline constexpr std::uint32_t kNoNode = 0xffffffffu;

/// One actual argument as propagation reads it: a whole array passed by
/// reference, or a scalar whose value may be affine in the caller's
/// variables. Neither set: the actual cannot be translated.
struct ActualArg {
  ir::StIdx array = ir::kInvalidSt;
  std::optional<regions::LinExpr> affine;
};

/// The actual arguments of one CALL node, by position.
[[nodiscard]] std::vector<ActualArg> digest_actuals(const ir::WN& call,
                                                    const ir::SymbolTable& symtab);

struct CallSite {
  std::uint32_t callee = kNoNode;  // index into CallGraph::nodes()
  SourceLoc loc;
  std::vector<ActualArg> actuals;
  std::string unlinked;  // callee name when callee == kNoNode (for the .dgn)
};

struct CGNode {
  ir::StIdx proc_st = ir::kInvalidSt;
  const ir::ProcedureIR* proc = nullptr;  // WHIRL body; null in a linked program
  FileId file = kInvalidFileId;           // defining file
  std::vector<CallSite> callsites;        // out-edges, in source order
  std::vector<std::uint32_t> callers;     // in-edges (node indices, deduplicated)
  bool is_root = false;                   // no callers (program entry)
  /// Calls a node that comes at or after it in bottom_up(): a recursive
  /// cycle closes here, so bottom-up propagation reads a stale summary.
  bool closes_cycle = false;
};

class CallGraph {
 public:
  [[nodiscard]] static CallGraph build(const ir::Program& program);

  /// A graph over given nodes (procedure, file and call sites set); fills
  /// in callers, roots, the bottom-up order and the cycle flags.
  [[nodiscard]] static CallGraph from_nodes(std::vector<CGNode> nodes);

  [[nodiscard]] const std::vector<CGNode>& nodes() const { return nodes_; }
  [[nodiscard]] const CGNode& node(std::uint32_t i) const { return nodes_.at(i); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const;

  [[nodiscard]] std::optional<std::uint32_t> find(ir::StIdx proc_st) const;
  [[nodiscard]] std::optional<std::uint32_t> find(std::string_view name,
                                                  const ir::Program& program) const;

  /// Pre-order from the roots (Algorithm 1 traverses the call graph
  /// pre-order); unreachable nodes are appended at the end.
  [[nodiscard]] std::vector<std::uint32_t> preorder() const;

  /// Callees-before-callers order for bottom-up summary propagation: DFS
  /// post-order from each node in index order. Cycles (recursion) are
  /// broken at the nodes flagged `closes_cycle`; `has_cycle` reports
  /// whether there are any, in which case propagation must iterate.
  [[nodiscard]] const std::vector<std::uint32_t>& bottom_up() const { return bottom_up_; }
  [[nodiscard]] bool has_cycle() const { return has_cycle_; }

 private:
  std::vector<CGNode> nodes_;
  std::vector<std::uint32_t> bottom_up_;
  bool has_cycle_ = false;
};

}  // namespace ara::ipa
