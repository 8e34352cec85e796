// Cloning: clone_blocks() through a CloneContext is the one path that copies
// a function body, for whole-module clones (Function::materialize_body) and
// for the inliner, partial inliner, loop rotation, unroller and unswitcher.
// A module clone creates its globals and functions in its source's order,
// so each copy is found by its source's index().
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ir/id_table.hpp"
#include "ir/module.hpp"

namespace autophase::ir {

/// Remapping state of a clone of (part of) one source function: its blocks
/// and instructions map through IdTables over that function, and its
/// arguments by index. A cross-module clone names its destination module:
/// a global or a callee then maps to the destination's at the same index(),
/// and a constant to the destination's interned copy. Like the tables, a
/// context covers the source's nodes as they were when it was made.
/// Anything else maps to itself: a node of another function, an unlinked
/// instruction, a node created later (the copies among them), an unmapped
/// argument, and without a destination every global, function and constant.
class CloneContext {
 public:
  explicit CloneContext(const Function& source, Module* dest = nullptr);

  [[nodiscard]] Value* map_value(Value* v) const;
  [[nodiscard]] BasicBlock* map_block(BasicBlock* bb) const;
  [[nodiscard]] Function* map_function(Function* f) const;
  /// Maps the source's argument `i` to `v` (e.g. a call site's operand).
  void map_arg(std::size_t i, Value* v) { args_[i] = v; }

  IdTable<BasicBlock, BasicBlock*> blocks;  ///< source block -> its copy
  IdTable<Instruction, Value*> insts;       ///< source instruction -> its copy or substitute

 private:
  const Function* source_;
  Module* dest_;
  std::vector<Value*> args_;
};

/// Rewrites operands, successors, phi incoming blocks, and callee of a
/// (cloned) instruction through the context.
void remap_instruction(Instruction* inst, const CloneContext& ctx);

/// Clones `blocks` of the context's source function into `dest_func`
/// (appended, in order, names suffixed), recording the copies in ctx and
/// remapping every operand through it. References to blocks outside the
/// cloned set are left for the caller to retarget. The source is only read.
std::vector<BasicBlock*> clone_blocks(Function& dest_func, std::span<BasicBlock* const> blocks,
                                      CloneContext& ctx, const std::string& suffix);

/// Deep copy of a module: a rollout clone materialised at once, numbered
/// densely in block order. Arena-backed: its IR nodes bump-allocate from a
/// module-owned support::Arena and are released wholesale with the copy.
std::unique_ptr<Module> clone_module(const Module& src);

/// Cheap rollout clone: globals, function signatures, arguments and
/// attributes are copied eagerly, while function *bodies* stay lazy
/// references into `src` until something asks for mutable blocks
/// (passes::apply_pass materialises the whole module). The printer, the
/// feature extractor, the interpreter, the scheduler and the module codec
/// read through Function::reading_body(), so fingerprinting, costing or
/// serialising an unmutated clone never copies a body. `src` may itself be
/// a lazy clone: the new clone then reads through both.
///
/// Contracts: `src` must outlive the clone until materialize_all() has run
/// (EvalService/env rollouts borrow the long-lived base program; the serve
/// decoder materialises before a module escapes into a response), neither
/// gains nor loses a global or a function meanwhile (the clone reads their
/// positions), and the clone is thread-confined while lazy. Concurrent
/// rollout clones of one shared source are safe: the source is only ever
/// read.
std::unique_ptr<Module> clone_module_for_rollout(const Module& src);

}  // namespace autophase::ir
