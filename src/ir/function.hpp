// Function: arguments + owned basic blocks + inferred attributes. The first
// block is the entry block. Functions are owned by a Module.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.hpp"
#include "ir/value.hpp"

namespace autophase::ir {

class Module;
class DominatorTree;
class LoopInfo;

/// Attributes inferred by -functionattrs / -prune-eh and consumed by the
/// scalar optimisations (CSE/GVN/LICM/ADCE treat readnone calls as pure).
struct FunctionAttrs {
  bool readnone = false;  ///< touches no memory (pure function of its args)
  bool readonly = false;  ///< may read but never writes memory
  bool nounwind = false;  ///< cannot unwind (always true after -prune-eh)
};

class Function {
 public:
  Function(Module* parent, std::string name, Type* return_type,
           const std::vector<Type*>& param_types, std::vector<std::string> param_names = {});
  ~Function();

  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;

  /// Arena-aware allocation, same discipline as Value (see support/arena.hpp).
  static void* operator new(std::size_t size) { return support::arena_aware_allocate(size); }
  static void operator delete(void* ptr) noexcept { support::arena_aware_deallocate(ptr); }

  [[nodiscard]] Module* parent() const noexcept { return parent_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  [[nodiscard]] Type* return_type() const noexcept { return return_type_; }

  // ---- Arguments ----
  [[nodiscard]] std::size_t arg_count() const noexcept { return args_.size(); }
  [[nodiscard]] Argument* arg(std::size_t i) const noexcept { return args_[i].get(); }
  [[nodiscard]] std::vector<Argument*> args() const;
  /// Removes a formal parameter (caller must already have rewritten all call
  /// sites); reindexes the remaining arguments.
  void remove_arg(std::size_t i);

  // ---- Copy-on-write body (rollout clones; see ir/clone.hpp) ----
  /// True while this function's body is a lazy reference into the rollout
  /// clone's source module (clone_module_for_rollout) — no blocks have been
  /// deep-copied yet.
  [[nodiscard]] bool has_lazy_body() const noexcept { return cow_source_ != nullptr; }
  /// The function whose blocks to *read*: the CoW source while lazy (its
  /// body is bit-identical to what materialisation would produce — block
  /// order, names, and operands are all preserved by the clone), this
  /// function otherwise. The printer and the feature extractor go through
  /// this, so fingerprinting an unmutated rollout clone never deep-copies.
  [[nodiscard]] const Function* reading_body() const noexcept {
    return cow_source_ != nullptr ? cow_source_ : this;
  }
  /// Deep-copies the source body into this function through the module's
  /// shared clone context (no-op when not lazy). Every accessor that hands
  /// out mutable blocks calls this first, so passes can never see — let
  /// alone mutate — the source module's blocks.
  void materialize() const {
    if (cow_source_ != nullptr) materialize_body();
  }

  // ---- Blocks ----
  [[nodiscard]] std::size_t block_count() const {
    materialize();
    return blocks_.size();
  }
  [[nodiscard]] BasicBlock* entry() const {
    materialize();
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }
  [[nodiscard]] BasicBlock* block(std::size_t i) const {
    materialize();
    return blocks_[i].get();
  }
  /// Snapshot of block pointers (safe to iterate during mutation).
  [[nodiscard]] std::vector<BasicBlock*> blocks() const;

  /// Create and append a block.
  BasicBlock* create_block(std::string name);
  /// Create a block placed immediately after `after` (keeps printing and
  /// scheduling order intuitive).
  BasicBlock* create_block_after(BasicBlock* after, std::string name);
  /// Unlink and destroy a block. The block's instructions are destroyed;
  /// callers must already have removed external references (branches to it,
  /// phi incoming entries, users of its values).
  void erase_block(BasicBlock* bb);
  [[nodiscard]] int index_of(const BasicBlock* bb) const;
  /// Move `bb` to position `index` in the block order (printing/scheduling
  /// cosmetics only; CFG semantics are edge-based).
  void move_block(BasicBlock* bb, std::size_t index);

  // ---- Attributes ----
  [[nodiscard]] const FunctionAttrs& attrs() const noexcept { return attrs_; }
  [[nodiscard]] FunctionAttrs& attrs() noexcept { return attrs_; }

  /// Total instruction count across blocks (inliner cost metric).
  [[nodiscard]] std::size_t instruction_count() const noexcept;

  // ---- Ids (see ir/id_table.hpp) ----
  /// One past the largest id issued to a block / an instruction of this
  /// function: the size of a table indexed by id.
  [[nodiscard]] std::uint32_t block_id_bound() const {
    materialize();
    return next_block_id_;
  }
  [[nodiscard]] std::uint32_t inst_id_bound() const {
    materialize();
    return next_inst_id_;
  }

 private:
  friend class BasicBlock;  // issues instruction ids as it links them
  friend std::unique_ptr<Module> clone_module_for_rollout(const Module& src);
  friend std::shared_ptr<const DominatorTree> dominators(Function& f);
  friend std::shared_ptr<const LoopInfo> loop_info(Function& f);

  /// What dominators() and loop_info() cache (see ir/loop_info.hpp): the
  /// analyses and the CFG snapshot they were built from. Empty in a new
  /// function, so clones start without analyses.
  struct CfgAnalyses {
    std::vector<std::uint32_t> cfg;
    std::shared_ptr<const DominatorTree> tree;
    std::shared_ptr<const LoopInfo> loops;
  };

  /// Out-of-line slow path of materialize(); defined in clone.cpp (it runs
  /// the clone_blocks / bind_operand machinery). Logically-const lazy init:
  /// rollout clones are thread-confined, so no synchronisation is needed —
  /// and the *source* function is only ever read, never touched, preserving
  /// the concurrent-clone contract of clone_blocks.
  void materialize_body() const;

  Module* parent_;
  std::string name_;
  Type* return_type_;
  std::vector<std::unique_ptr<Argument>> args_;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
  FunctionAttrs attrs_;
  const Function* cow_source_ = nullptr;
  std::uint32_t next_block_id_ = 0;
  std::uint32_t next_inst_id_ = 0;
  CfgAnalyses cfg_analyses_;
};

}  // namespace autophase::ir
