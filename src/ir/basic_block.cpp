#include "ir/basic_block.hpp"

#include <algorithm>
#include <cassert>

#include "ir/function.hpp"

namespace autophase::ir {

BasicBlock::~BasicBlock() {
  // In normal teardown flows Function has already dropped all references (so
  // this is a no-op); for a stray standalone destruction it unregisters
  // everything while operand targets are still alive.
  drop_all_references();
}

void BasicBlock::drop_all_references() {
  for (auto& inst : insts_) {
    if (inst->is_terminator() && inst->parent_ == this) {
      for (BasicBlock* succ : inst->successors_) succ->remove_pred(this);
    }
    inst->successors_.clear();
    inst->incoming_blocks_.clear();
    inst->parent_ = nullptr;
    inst->clear_operands();
  }
}

std::vector<Instruction*> BasicBlock::instructions() const {
  std::vector<Instruction*> out;
  out.reserve(insts_.size());
  for (const auto& inst : insts_) out.push_back(inst.get());
  return out;
}

std::vector<Instruction*> BasicBlock::phis() const {
  std::vector<Instruction*> out;
  for (const auto& inst : insts_) {
    if (!inst->is_phi()) break;
    out.push_back(inst.get());
  }
  return out;
}

Instruction* BasicBlock::terminator() const noexcept {
  if (insts_.empty()) return nullptr;
  Instruction* last = insts_.back().get();
  return last->is_terminator() ? last : nullptr;
}

int BasicBlock::index_of(const Instruction* inst) const noexcept {
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    if (insts_[i].get() == inst) return static_cast<int>(i);
  }
  return -1;
}

Instruction* BasicBlock::push_back(std::unique_ptr<Instruction> inst) {
  return link(insts_.size(), std::move(inst));
}

Instruction* BasicBlock::insert_before(Instruction* before, std::unique_ptr<Instruction> inst) {
  const int idx = index_of(before);
  assert(idx >= 0 && "insert_before target not in block");
  return insert_at(static_cast<std::size_t>(idx), std::move(inst));
}

Instruction* BasicBlock::insert_at(std::size_t index, std::unique_ptr<Instruction> inst) {
  return link(index, std::move(inst));
}

Instruction* BasicBlock::link(std::size_t index, std::unique_ptr<Instruction> inst) {
  assert(inst != nullptr && inst->parent_ == nullptr);
  assert(index <= insts_.size());
  Instruction* raw = inst.get();
  raw->parent_ = this;
  raw->id_ = parent_->next_inst_id_++;
  insts_.insert(insts_.begin() + static_cast<std::ptrdiff_t>(index), std::move(inst));
  raw->notify_linked();
  return raw;
}

Instruction* BasicBlock::insert_before_terminator(std::unique_ptr<Instruction> inst) {
  Instruction* term = terminator();
  if (term == nullptr) return push_back(std::move(inst));
  return insert_before(term, std::move(inst));
}

std::unique_ptr<Instruction> BasicBlock::take(Instruction* inst) {
  const int idx = index_of(inst);
  assert(idx >= 0 && "take target not in block");
  inst->notify_unlinked();
  auto owned = std::move(insts_[static_cast<std::size_t>(idx)]);
  insts_.erase(insts_.begin() + idx);
  return owned;
}

void BasicBlock::erase(Instruction* inst) {
  auto owned = take(inst);
  owned.reset();  // destructor unregisters operand uses
}

std::vector<BasicBlock*> BasicBlock::unique_predecessors() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* p : preds_) {
    if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
  }
  return out;
}

std::vector<BasicBlock*> BasicBlock::successors() const {
  Instruction* term = terminator();
  if (term == nullptr) return {};
  std::vector<BasicBlock*> out;
  out.reserve(term->successor_count());
  for (std::size_t i = 0; i < term->successor_count(); ++i) out.push_back(term->successor(i));
  return out;
}

bool BasicBlock::has_predecessor(const BasicBlock* bb) const noexcept {
  return std::find(preds_.begin(), preds_.end(), bb) != preds_.end();
}

void BasicBlock::remove_pred(BasicBlock* bb) {
  const auto it = std::find(preds_.begin(), preds_.end(), bb);
  assert(it != preds_.end() && "predecessor list out of sync");
  preds_.erase(it);
}

}  // namespace autophase::ir
