#include "ir/cfg.hpp"

#include <algorithm>
#include <cassert>

#include "ir/id_table.hpp"
#include "ir/module.hpp"

namespace autophase::ir {

std::vector<BasicBlock*> post_order(Function& f) {
  std::vector<BasicBlock*> out;
  if (f.entry() == nullptr) return out;
  // Iterative DFS; successor order preserved for determinism.
  struct Frame {
    BasicBlock* bb;
    std::vector<BasicBlock*> succs;
    std::size_t next = 0;
  };
  IdTable<BasicBlock, bool> visited(f, false);
  std::vector<Frame> stack;
  visited[f.entry()] = true;
  stack.push_back({f.entry(), f.entry()->successors()});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next < top.succs.size()) {
      BasicBlock* s = top.succs[top.next++];
      if (!visited[s]) {
        visited[s] = true;
        stack.push_back({s, s->successors()});
      }
    } else {
      out.push_back(top.bb);
      stack.pop_back();
    }
  }
  return out;
}

std::vector<BasicBlock*> reverse_post_order(Function& f) {
  auto out = post_order(f);
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t remove_unreachable_blocks(Function& f) {
  IdTable<BasicBlock, bool> dead(f, true);
  for (BasicBlock* bb : post_order(f)) dead[bb] = false;
  std::vector<BasicBlock*> dead_blocks;
  for (BasicBlock* bb : f.blocks()) {
    if (dead[bb]) dead_blocks.push_back(bb);
  }
  if (dead_blocks.empty()) return 0;

  // Fix survivors: drop phi incomings from dead blocks.
  for (BasicBlock* bb : f.blocks()) {
    if (dead[bb]) continue;
    for (Instruction* phi : bb->phis()) {
      for (int i = static_cast<int>(phi->incoming_count()) - 1; i >= 0; --i) {
        if (dead[phi->incoming_block(static_cast<std::size_t>(i))]) {
          phi->remove_incoming(static_cast<std::size_t>(i));
        }
      }
    }
  }
  // Replace any live use of a value defined in a dead block with undef.
  Module* m = f.parent();
  for (BasicBlock* bb : dead_blocks) {
    for (Instruction* inst : bb->instructions()) {
      if (inst->type()->is_void() || !inst->has_users()) continue;
      // Only external (live-block) users matter; internal ones die together.
      inst->replace_all_uses_with(m->get_undef(inst->type()));
    }
  }
  // Dead blocks may branch to each other: unregister every cross-reference
  // while all of them are still alive, then destroy (drop is idempotent, so
  // erase_block's own drop becomes a no-op).
  for (BasicBlock* bb : dead_blocks) bb->drop_all_references();
  for (BasicBlock* bb : dead_blocks) f.erase_block(bb);
  return dead_blocks.size();
}

bool is_critical_edge(BasicBlock* from, BasicBlock* to) {
  Instruction* term = from->terminator();
  if (term == nullptr || term->successor_count() < 2) return false;
  // The edge must actually (still) exist — a prior split of a multi-slot
  // edge (switch cases sharing a target) removes every slot at once.
  bool targets_to = false;
  for (std::size_t i = 0; i < term->successor_count(); ++i) {
    if (term->successor(i) == to) targets_to = true;
  }
  if (!targets_to) return false;
  return to->unique_predecessors().size() > 1;
}

BasicBlock* split_edge(BasicBlock* from, BasicBlock* to, const std::string& name) {
  Function* f = from->parent();
  BasicBlock* mid = f->create_block_after(from, name);
  Instruction* term = from->terminator();
  assert(term != nullptr);
  term->replace_successor(to, mid);
  mid->push_back(Instruction::br(to));
  for (Instruction* phi : to->phis()) phi->replace_incoming_block(from, mid);
  return mid;
}

BasicBlock* merge_block_into_predecessor(BasicBlock* bb) {
  const auto preds = bb->unique_predecessors();
  if (preds.size() != 1) return nullptr;
  BasicBlock* pred = preds.front();
  if (pred == bb) return nullptr;
  Instruction* pterm = pred->terminator();
  if (pterm == nullptr || pterm->opcode() != Opcode::kBr) return nullptr;
  Function* f = bb->parent();

  // Phis in bb have a single incoming value now; fold them.
  for (Instruction* phi : bb->phis()) {
    assert(phi->incoming_count() == 1);
    Value* incoming = phi->incoming_value(0);
    // A single-entry phi may reference itself only in dead code; map that to undef.
    if (incoming == phi) incoming = f->parent()->get_undef(phi->type());
    phi->replace_all_uses_with(incoming);
    bb->erase(phi);
  }
  // Remove pred's terminator, splice bb's instructions across.
  pred->erase(pterm);
  while (!bb->empty()) {
    auto inst = bb->take(bb->front());
    pred->push_back(std::move(inst));
  }
  // Successors' phis referenced bb; they now flow from pred.
  for (BasicBlock* succ : pred->successors()) {
    for (Instruction* phi : succ->phis()) phi->replace_incoming_block(bb, pred);
  }
  f->erase_block(bb);
  return pred;
}

std::vector<Instruction*> collect_call_sites(Module& m, const Function* f) {
  std::vector<Instruction*> out;
  for (Function* caller : m.functions()) {
    for (BasicBlock* bb : caller->blocks()) {
      for (Instruction* inst : bb->instructions()) {
        if (inst->opcode() == Opcode::kCall && inst->callee() == f) out.push_back(inst);
      }
    }
  }
  return out;
}

}  // namespace autophase::ir
