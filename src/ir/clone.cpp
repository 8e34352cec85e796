#include "ir/clone.hpp"

#include <cassert>

namespace autophase::ir {

CloneContext::CloneContext(const Function& source, Module* dest)
    : blocks(source, nullptr),
      insts(source, nullptr),
      source_(&source),
      dest_(dest),
      args_(source.arg_count(), nullptr) {}

Value* CloneContext::map_value(Value* v) const {
  switch (v->value_kind()) {
    case ValueKind::kInstruction: {
      Value* mapped = insts.find(as_instruction(v));
      return mapped != nullptr ? mapped : v;
    }
    case ValueKind::kArgument: {
      const auto* a = static_cast<const Argument*>(v);
      Value* mapped =
          a->parent() == source_ && a->index() < args_.size() ? args_[a->index()] : nullptr;
      return mapped != nullptr ? mapped : v;
    }
    case ValueKind::kGlobalVariable: {
      if (dest_ == nullptr) return v;
      assert(source_->parent()->owns(as_global(v)) && "global of another module");
      return dest_->global(as_global(v)->index());
    }
    case ValueKind::kConstantInt:
      if (dest_ == nullptr) return v;
      return dest_->get_int(v->type(), as_constant_int(v)->value());
    case ValueKind::kUndef:
      return dest_ == nullptr ? v : dest_->get_undef(v->type());
  }
  return v;
}

BasicBlock* CloneContext::map_block(BasicBlock* bb) const {
  BasicBlock* mapped = blocks.find(bb);
  return mapped != nullptr ? mapped : bb;
}

Function* CloneContext::map_function(Function* f) const {
  if (dest_ == nullptr) return f;
  assert(source_->parent()->owns(f) && "callee of another module");
  return dest_->function(f->index());
}

namespace {

/// Remaps phi incoming blocks and the callee: the part both remaps share.
void remap_incoming_and_callee(Instruction* inst, const CloneContext& ctx) {
  if (inst->is_phi()) {
    for (std::size_t i = 0; i < inst->incoming_count(); ++i) {
      BasicBlock* old = inst->incoming_block(i);
      BasicBlock* mapped = ctx.map_block(old);
      if (mapped != old) inst->replace_incoming_block(old, mapped);
    }
  }
  if (inst->opcode() == Opcode::kCall) inst->set_callee(ctx.map_function(inst->callee()));
}

/// Finishes an instruction produced by clone_unbound(): binds every operand
/// to its mapped value (registering the user exactly once). Successors were
/// remapped before linking.
void remap_unbound_instruction(Instruction* inst, const CloneContext& ctx) {
  for (std::size_t i = 0; i < inst->operand_count(); ++i) {
    inst->bind_operand(i, ctx.map_value(inst->operand(i)));
  }
  remap_incoming_and_callee(inst, ctx);
}

}  // namespace

void remap_instruction(Instruction* inst, const CloneContext& ctx) {
  for (std::size_t i = 0; i < inst->operand_count(); ++i) {
    Value* mapped = ctx.map_value(inst->operand(i));
    if (mapped != inst->operand(i)) inst->set_operand(i, mapped);
  }
  if (inst->is_terminator()) {
    for (std::size_t i = 0; i < inst->successor_count(); ++i) {
      BasicBlock* mapped = ctx.map_block(inst->successor(i));
      if (mapped != inst->successor(i)) inst->set_successor(i, mapped);
    }
  }
  remap_incoming_and_callee(inst, ctx);
}

std::vector<BasicBlock*> clone_blocks(Function& dest_func, std::span<BasicBlock* const> blocks,
                                      CloneContext& ctx, const std::string& suffix) {
  std::vector<BasicBlock*> out;
  out.reserve(blocks.size());
  for (BasicBlock* bb : blocks) {
    BasicBlock* copy = dest_func.create_block(bb->name() + suffix);
    ctx.blocks[bb] = copy;
    out.push_back(copy);
  }
  // The source must stay bit-untouched throughout — rollout clones of one
  // shared program materialise concurrently (runtime::EvalService), so even
  // transient mutate-then-restore edits of source user/pred lists are data
  // races. Hence: unbound clones (operands not registered), successors
  // remapped while still unlinked (every dest block already exists), and a
  // deferred bind pass once all clones exist (phis and branches reference
  // forward).
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BasicBlock* bb = blocks[b];
    for (std::size_t i = 0; i < bb->size(); ++i) {
      const Instruction* inst = bb->inst(i);
      auto owned = inst->clone_unbound();
      if (owned->is_terminator()) {
        for (std::size_t s = 0; s < owned->successor_count(); ++s) {
          owned->set_successor(s, ctx.map_block(owned->successor(s)));
        }
      }
      ctx.insts[inst] = out[b]->push_back(std::move(owned));
    }
  }
  for (BasicBlock* copy : out) {
    for (std::size_t i = 0; i < copy->size(); ++i) remap_unbound_instruction(copy->inst(i), ctx);
  }
  return out;
}

std::unique_ptr<Module> clone_module(const Module& src) {
  auto dest = clone_module_for_rollout(src);
  dest->materialize_all();
  return dest;
}

std::unique_ptr<Module> clone_module_for_rollout(const Module& src) {
  // Every clone gets its own arena: rollouts and beam children churn
  // through short-lived modules, and bump allocation + wholesale release
  // beats per-node heap traffic (and the allocator contention it causes
  // across eval threads).
  auto arena = std::make_shared<support::Arena>();
  support::ArenaScope scope(arena.get());
  auto dest = std::make_unique<Module>(src.name());
  dest->adopt_arena(std::move(arena));

  // Created in order, so every copy has its source's index().
  for (std::size_t i = 0; i < src.global_count(); ++i) {
    const GlobalVariable* g = src.global(i);
    dest->create_global(g->element_type(), g->element_count(), g->name(), g->init(),
                        g->is_constant_data());
  }
  for (std::size_t i = 0; i < src.function_count(); ++i) {
    const Function* f = src.function(i);
    std::vector<Type*> param_types;
    std::vector<std::string> param_names;
    for (std::size_t a = 0; a < f->arg_count(); ++a) {
      param_types.push_back(f->arg(a)->type());
      param_names.push_back(f->arg(a)->name());
    }
    Function* copy = dest->create_function(f->name(), f->return_type(), param_types, param_names);
    copy->attrs() = f->attrs();
    copy->cow_source_ = f;
  }
  return dest;
}

void Function::materialize_body() const {
  // Logically-const lazy initialisation; rollout clones are thread-confined
  // while lazy (clone.hpp contract), so no synchronisation. The source is
  // only read, a lazy one through to the body it reads.
  auto* self = const_cast<Function*>(this);
  const Function* src = reading_body();
  // Clear the marker first: clone_blocks appends through create_block(),
  // which must not re-enter materialisation.
  self->cow_source_ = nullptr;
  support::ArenaScope scope(self->parent_->arena());
  CloneContext ctx(*src, self->parent_);
  for (std::size_t a = 0; a < src->arg_count(); ++a) ctx.map_arg(a, self->arg(a));
  clone_blocks(*self, src->blocks(), ctx, "");
}

}  // namespace autophase::ir
