// BasicBlock: an ordered list of instructions ending in exactly one
// terminator (enforced by the verifier). Owns its instructions; maintains a
// predecessor list that is kept consistent automatically by the
// link/unlink/set_successor discipline in Instruction.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.hpp"

namespace autophase::ir {

class Function;

class BasicBlock {
 public:
  /// Made only by Function, which issues `id` (see Function::block_id_bound).
  BasicBlock(Function* parent, std::uint32_t id, std::string name)
      : parent_(parent), id_(id), name_(std::move(name)) {}
  ~BasicBlock();

  BasicBlock(const BasicBlock&) = delete;
  BasicBlock& operator=(const BasicBlock&) = delete;

  /// Arena-aware allocation, same discipline as Value (see support/arena.hpp).
  static void* operator new(std::size_t size) { return support::arena_aware_allocate(size); }
  static void operator delete(void* ptr) noexcept { support::arena_aware_deallocate(ptr); }

  [[nodiscard]] Function* parent() const noexcept { return parent_; }
  /// Dense per-function id, fixed at creation and never reused (see
  /// ir/id_table.hpp).
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- Instruction access ----
  [[nodiscard]] std::size_t size() const noexcept { return insts_.size(); }
  [[nodiscard]] bool empty() const noexcept { return insts_.empty(); }
  [[nodiscard]] Instruction* inst(std::size_t i) const noexcept { return insts_[i].get(); }
  [[nodiscard]] Instruction* front() const noexcept { return insts_.front().get(); }
  [[nodiscard]] Instruction* back() const noexcept { return insts_.back().get(); }

  /// Snapshot of instruction pointers, safe to iterate while mutating the
  /// block (the snapshot does not observe insertions/erasures).
  [[nodiscard]] std::vector<Instruction*> instructions() const;

  /// Leading phi instructions.
  [[nodiscard]] std::vector<Instruction*> phis() const;

  /// The terminator, or nullptr if the block is still under construction.
  [[nodiscard]] Instruction* terminator() const noexcept;

  /// Position of an instruction in this block; -1 if absent.
  [[nodiscard]] int index_of(const Instruction* inst) const noexcept;

  // ---- Mutation ----
  /// Append (registers successor edges if terminator).
  Instruction* push_back(std::unique_ptr<Instruction> inst);
  /// Insert before `before` (which must be in this block).
  Instruction* insert_before(Instruction* before, std::unique_ptr<Instruction> inst);
  /// Insert at index.
  Instruction* insert_at(std::size_t index, std::unique_ptr<Instruction> inst);
  /// Insert just before the terminator (or append when none).
  Instruction* insert_before_terminator(std::unique_ptr<Instruction> inst);

  /// Unlink `inst` (must be in this block) and return ownership without
  /// destroying it; operand use lists are preserved so it can be re-inserted
  /// elsewhere (LLVM's splice).
  std::unique_ptr<Instruction> take(Instruction* inst);

  /// Unlink and destroy.
  void erase(Instruction* inst);

  /// Unregister every reference held by this block's instructions (operand
  /// uses, successor/pred edges, phi incoming blocks) while all referenced
  /// values are still alive. Must be called before wholesale destruction of
  /// blocks so destruction order cannot matter (LLVM's dropAllReferences).
  /// Idempotent.
  void drop_all_references();

  // ---- CFG ----
  /// Predecessors, with multiplicity (a condbr with both edges to this block
  /// contributes two entries, matching LLVM's pred iteration).
  [[nodiscard]] const std::vector<BasicBlock*>& predecessors() const noexcept { return preds_; }
  /// Deduplicated predecessor list.
  [[nodiscard]] std::vector<BasicBlock*> unique_predecessors() const;
  [[nodiscard]] std::vector<BasicBlock*> successors() const;
  [[nodiscard]] bool has_predecessor(const BasicBlock* bb) const noexcept;

 private:
  friend class Instruction;

  void add_pred(BasicBlock* bb) { preds_.push_back(bb); }
  void remove_pred(BasicBlock* bb);

  /// Links `inst` into this block at `index`: takes it as a child and
  /// gives it a fresh id from the parent function.
  Instruction* link(std::size_t index, std::unique_ptr<Instruction> inst);

  Function* parent_;
  std::uint32_t id_;
  std::string name_;
  std::vector<std::unique_ptr<Instruction>> insts_;
  std::vector<BasicBlock*> preds_;
};

}  // namespace autophase::ir
