// Cloning: clone_blocks() through a CloneContext is the one path that copies
// a function body, for whole-module clones (Function::materialize_body) and
// for the inliner, partial inliner, loop unroller and loop unswitcher.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/id_table.hpp"
#include "ir/module.hpp"

namespace autophase::ir {

/// What a rollout clone maps besides function bodies: the clone itself,
/// where constants are re-interned, and its copies of the source's globals
/// and functions. Tens of entries per module, so plain maps.
struct CowState {
  Module* dest = nullptr;
  std::unordered_map<const GlobalVariable*, GlobalVariable*> globals;
  std::unordered_map<const Function*, Function*> functions;
};

/// Remapping state of a clone of (part of) one source function: its blocks
/// and instructions map through IdTables over that function, its arguments
/// by index, and globals, functions and constants through the CowState of a
/// cross-module clone. Like the tables, a context covers the source's nodes
/// as they were when it was made. Anything else maps to itself: a node of
/// another function, an unlinked instruction, a node created later (the
/// copies among them), an unmapped argument, and without a CowState every
/// global, function and constant.
class CloneContext {
 public:
  explicit CloneContext(const Function& source, const CowState* module = nullptr);

  [[nodiscard]] Value* map_value(Value* v) const;
  [[nodiscard]] BasicBlock* map_block(BasicBlock* bb) const;
  [[nodiscard]] Function* map_function(Function* f) const;
  /// Maps the source's argument `i` to `v` (e.g. a call site's operand).
  void map_arg(std::size_t i, Value* v) { args_[i] = v; }

  IdTable<BasicBlock, BasicBlock*> blocks;  ///< source block -> its copy
  IdTable<Instruction, Value*> insts;       ///< source instruction -> its copy or substitute

 private:
  const Function* source_;
  const CowState* module_;
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
/// (passes::apply_pass materialises the whole module). The printer and the
/// feature extractor read through Function::reading_body(), so
/// fingerprinting an unmutated clone never copies a body.
///
/// Contracts: `src` must outlive the clone until materialize_all() has run
/// (EvalService/env rollouts borrow the long-lived base program; the serve
/// decoder materialises before a module escapes into a response), and the
/// clone is thread-confined while lazy. Concurrent rollout clones of one
/// shared source are safe: the source is only ever read.
std::unique_ptr<Module> clone_module_for_rollout(const Module& src);

}  // namespace autophase::ir
