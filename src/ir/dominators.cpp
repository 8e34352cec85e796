#include "ir/dominators.hpp"

#include <cassert>

#include "ir/cfg.hpp"

namespace autophase::ir {

DominatorTree::DominatorTree(Function& f) {
  rpo_ = reverse_post_order(f);
  index_.reset(f, -1);
  for (std::size_t i = 0; i < rpo_.size(); ++i) index_[rpo_[i]] = static_cast<int>(i);

  idom_.assign(rpo_.size(), -1);
  if (rpo_.empty()) return;
  idom_[0] = 0;  // entry dominated by itself (sentinel)

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 1; i < rpo_.size(); ++i) {
      int new_idom = -1;
      for (BasicBlock* pred : rpo_[i]->unique_predecessors()) {
        const int p = index_.find(pred);
        if (p < 0) continue;  // unreachable pred
        if (idom_[static_cast<std::size_t>(p)] < 0 && p != 0) continue;  // not yet processed
        new_idom = new_idom < 0 ? p : intersect(p, new_idom);
      }
      if (new_idom >= 0 && idom_[i] != new_idom) {
        idom_[i] = new_idom;
        changed = true;
      }
    }
  }

  children_.assign(rpo_.size(), {});
  for (std::size_t i = 1; i < rpo_.size(); ++i) {
    if (idom_[i] >= 0) children_[static_cast<std::size_t>(idom_[i])].push_back(rpo_[i]);
  }
}

int DominatorTree::intersect(int a, int b) const {
  while (a != b) {
    while (a > b) a = idom_[static_cast<std::size_t>(a)];
    while (b > a) b = idom_[static_cast<std::size_t>(b)];
  }
  return a;
}

int DominatorTree::index_of(const BasicBlock* bb) const {
  const int i = index_.find(bb);
  assert(i >= 0 && "query on unreachable block");
  return i;
}

BasicBlock* DominatorTree::idom(const BasicBlock* bb) const {
  const int i = index_of(bb);
  if (i == 0) return nullptr;
  return rpo_[static_cast<std::size_t>(idom_[static_cast<std::size_t>(i)])];
}

bool DominatorTree::dominates(const BasicBlock* a, const BasicBlock* b) const {
  const int ia = index_of(a);
  int ib = index_of(b);
  while (ib > ia) ib = idom_[static_cast<std::size_t>(ib)];
  return ib == ia;
}

bool DominatorTree::value_dominates(const Value* def, const Instruction* user,
                                    std::size_t operand_index) const {
  // Non-instruction values (constants, arguments, globals) dominate everything.
  const Instruction* def_inst = as_instruction(def);
  if (def_inst == nullptr) return true;
  const BasicBlock* def_bb = def_inst->parent();
  if (def_bb == nullptr) return false;

  // A phi's use of an incoming value happens "at the end of" the incoming
  // block, not in the phi's block.
  const BasicBlock* use_bb;
  if (user->is_phi()) {
    use_bb = user->incoming_block(operand_index);
    if (def_bb == use_bb) return true;  // def at/above block end
    return dominates(def_bb, use_bb);
  }
  use_bb = user->parent();
  if (def_bb == use_bb) {
    return def_bb->index_of(def_inst) < def_bb->index_of(user);
  }
  if (!is_reachable(def_bb) || !is_reachable(use_bb)) return false;
  return dominates(def_bb, use_bb);
}

const std::vector<BasicBlock*>& DominatorTree::children(const BasicBlock* bb) const {
  return children_[static_cast<std::size_t>(index_of(bb))];
}

std::vector<std::vector<BasicBlock*>> DominatorTree::dominance_frontiers() const {
  std::vector<std::vector<BasicBlock*>> df(index_.size());
  for (BasicBlock* bb : rpo_) {
    const auto preds = bb->unique_predecessors();
    if (preds.size() < 2) continue;
    BasicBlock* dom = idom(bb);
    for (BasicBlock* p : preds) {
      if (!is_reachable(p)) continue;
      BasicBlock* runner = p;
      while (runner != nullptr && runner != dom) {
        auto& frontier = df[runner->id()];
        if (frontier.empty() || frontier.back() != bb) frontier.push_back(bb);
        runner = idom(runner);
      }
    }
  }
  return df;
}

}  // namespace autophase::ir
