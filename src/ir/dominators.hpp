// Dominator tree (Cooper-Harvey-Kennedy iterative algorithm) plus dominance
// frontiers (for mem2reg's phi placement) and value-level dominance queries
// (for the verifier, GVN, LICM, sink...).
#pragma once

#include <vector>

#include "ir/function.hpp"
#include "ir/id_table.hpp"

namespace autophase::ir {

class DominatorTree {
 public:
  /// Builds the tree over blocks reachable from entry. Unreachable blocks
  /// are not in the tree (is_reachable returns false, queries on them are
  /// invalid), and neither are blocks of other functions or blocks created
  /// after the build.
  explicit DominatorTree(Function& f);

  [[nodiscard]] bool is_reachable(const BasicBlock* bb) const noexcept {
    return rpo_index(bb) >= 0;
  }

  /// Position of `bb` in rpo(), or -1 when it is not in the tree.
  [[nodiscard]] int rpo_index(const BasicBlock* bb) const noexcept { return index_.find(bb); }

  /// Immediate dominator; nullptr for the entry block.
  [[nodiscard]] BasicBlock* idom(const BasicBlock* bb) const;

  /// Reflexive dominance over blocks.
  [[nodiscard]] bool dominates(const BasicBlock* a, const BasicBlock* b) const;

  /// Does the definition of `def` dominate the use at (user, operand i)?
  /// Handles: constants/args/globals (always), same-block ordering, and phi
  /// uses (which occur at the end of the matching incoming block).
  [[nodiscard]] bool value_dominates(const Value* def, const Instruction* user,
                                     std::size_t operand_index) const;

  /// Children in the dominator tree.
  [[nodiscard]] const std::vector<BasicBlock*>& children(const BasicBlock* bb) const;

  /// Dominance frontier of every block, indexed by BasicBlock::id() over
  /// the ids the function had issued at the build (empty for a block not in
  /// the tree).
  [[nodiscard]] std::vector<std::vector<BasicBlock*>> dominance_frontiers() const;

  /// Reachable blocks in reverse post-order (entry first).
  [[nodiscard]] const std::vector<BasicBlock*>& rpo() const noexcept { return rpo_; }

 private:
  [[nodiscard]] int index_of(const BasicBlock* bb) const;
  int intersect(int a, int b) const;

  std::vector<BasicBlock*> rpo_;
  IdTable<BasicBlock, int> index_;  // block -> rpo index, -1 when not in the tree
  std::vector<int> idom_;           // rpo index -> rpo index of idom
  std::vector<std::vector<BasicBlock*>> children_;
};

}  // namespace autophase::ir
