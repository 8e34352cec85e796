// Interprocedural passes of Table 1.
#include <algorithm>
#include <map>
#include <vector>

#include "ir/cfg.hpp"
#include "ir/clone.hpp"
#include "passes/all_passes.hpp"
#include "passes/util.hpp"

namespace autophase::passes {

namespace {

using ir::BasicBlock;
using ir::CloneContext;
using ir::ConstantInt;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Value;

/// Splits `bb` after `call`: everything after the call (including the
/// terminator) moves to a fresh continuation block; successor phis are
/// retargeted. Returns the continuation block.
BasicBlock* split_after_call(Instruction* call) {
  BasicBlock* bb = call->parent();
  Function* f = bb->parent();
  BasicBlock* cont = f->create_block_after(bb, bb->name() + ".cont");
  const int call_idx = bb->index_of(call);
  const std::vector<BasicBlock*> succs = bb->successors();
  while (static_cast<int>(bb->size()) > call_idx + 1) {
    auto inst = bb->take(bb->inst(static_cast<std::size_t>(call_idx + 1)));
    cont->push_back(std::move(inst));
  }
  for (BasicBlock* s : succs) {
    for (Instruction* phi : s->phis()) phi->replace_incoming_block(bb, cont);
  }
  return cont;
}

// ---------------------------------------------------------------------------
// -inline
// ---------------------------------------------------------------------------

class InlinePass {
 public:
  static constexpr std::size_t kInlineThreshold = 48;
  static constexpr int kMaxInlinesPerRun = 64;

  bool run(Module& m) {
    // Snapshot candidate sites first: inlining creates new call sites that
    // the next -inline invocation may consider (matching LLVM's bottom-up
    // behaviour loosely while staying deterministic).
    std::vector<Instruction*> sites;
    for (Function* f : m.functions()) {
      for (BasicBlock* bb : f->blocks()) {
        for (Instruction* inst : bb->instructions()) {
          if (inst->opcode() != Opcode::kCall) continue;
          Function* callee = inst->callee();
          if (callee == f) continue;  // direct recursion
          const bool small = callee->instruction_count() <= kInlineThreshold;
          const bool single_site = ir::collect_call_sites(m, callee).size() == 1;
          if (small || single_site) sites.push_back(inst);
        }
      }
    }
    bool changed = false;
    int budget = kMaxInlinesPerRun;
    for (Instruction* call : sites) {
      if (budget-- <= 0) break;
      if (call->parent() == nullptr) continue;  // removed meanwhile
      inline_site(m, call);
      changed = true;
    }
    return changed;
  }

 private:
  void inline_site(Module& m, Instruction* call) {
    Function* callee = call->callee();
    BasicBlock* bb = call->parent();
    Function* caller = bb->parent();

    BasicBlock* cont = split_after_call(call);

    CloneContext ctx(*callee);
    for (std::size_t i = 0; i < callee->arg_count(); ++i) ctx.map_arg(i, call->operand(i));
    const std::vector<BasicBlock*> cloned =
        ir::clone_blocks(*caller, callee->blocks(), ctx, ".i");

    // Entry-block allocas of the callee become caller-entry allocas
    // (standard inliner behaviour; keeps them promotable by -mem2reg).
    BasicBlock* cloned_entry = cloned.front();
    for (Instruction* inst : cloned_entry->instructions()) {
      if (inst->opcode() == Opcode::kAlloca) {
        auto owned = cloned_entry->take(inst);
        caller->entry()->insert_at(0, std::move(owned));
      }
    }

    // Collect returns, rewrite them into branches to the continuation.
    std::vector<std::pair<BasicBlock*, Value*>> returns;
    for (BasicBlock* cb : cloned) {
      Instruction* term = cb->terminator();
      if (term == nullptr || term->opcode() != Opcode::kRet) continue;
      Value* rv = term->operand_count() > 0 ? term->operand(0) : nullptr;
      cb->erase(term);
      cb->push_back(Instruction::br(cont));
      returns.emplace_back(cb, rv);
    }

    // Wire the call's result.
    if (!call->type()->is_void() && call->has_users()) {
      Value* result = nullptr;
      if (returns.size() == 1) {
        result = returns.front().second;
      } else if (returns.size() > 1) {
        Instruction* phi = cont->insert_at(0, Instruction::phi(call->type(), "inl.ret"));
        for (auto& [rb, rv] : returns) phi->add_incoming(rv, rb);
        result = phi;
      }
      if (result == nullptr) result = m.get_undef(call->type());
      call->replace_all_uses_with(result);
    }
    bb->erase(call);
    bb->push_back(Instruction::br(cloned.front()));
  }
};

// ---------------------------------------------------------------------------
// -partial-inliner
// ---------------------------------------------------------------------------

class PartialInlinerPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* g : m.functions()) {
      if (g->name() == "main") continue;
      changed |= outline_and_inline_guard(m, *g);
    }
    return changed;
  }

 private:
  /// Recognises `if (c) return X;` guards at a callee's entry and inlines
  /// just the guard at every call site, keeping the call on the slow path.
  bool outline_and_inline_guard(Module& m, Function& g) {
    BasicBlock* entry = g.entry();
    if (entry == nullptr) return false;
    Instruction* term = entry->terminator();
    if (term == nullptr || term->opcode() != Opcode::kCondBr) return false;
    for (Instruction* inst : entry->instructions()) {
      if (inst == term) continue;
      if (!inst->is_pure()) return false;
    }
    int early_side = -1;
    Value* early_value = nullptr;
    for (int side = 0; side < 2; ++side) {
      BasicBlock* candidate = term->successor(static_cast<std::size_t>(side));
      if (candidate->size() != 1) continue;
      Instruction* ret = candidate->terminator();
      if (ret == nullptr || ret->opcode() != Opcode::kRet) continue;
      Value* rv = ret->operand_count() > 0 ? ret->operand(0) : nullptr;
      // The returned value must be computable at the call site.
      if (rv != nullptr) {
        if (Instruction* def = ir::as_instruction(rv);
            def != nullptr && def->parent() != entry) {
          continue;
        }
      }
      early_side = side;
      early_value = rv;
      break;
    }
    if (early_side < 0) return false;

    const auto sites = ir::collect_call_sites(m, &g);
    if (sites.empty()) return false;

    bool changed = false;
    for (Instruction* call : sites) {
      if (call->parent()->parent() == &g) continue;  // recursive guard
      transform_site(m, g, call, term, early_side, early_value);
      changed = true;
    }
    return changed;
  }

  void transform_site(Module& m, Function& g, Instruction* call, Instruction* guard_term,
                      int early_side, Value* early_value) {
    BasicBlock* bb = call->parent();
    Function* caller = bb->parent();
    BasicBlock* cont = split_after_call(call);

    // Clone the entry computation with arguments bound.
    CloneContext ctx(g);
    for (std::size_t i = 0; i < g.arg_count(); ++i) ctx.map_arg(i, call->operand(i));
    BasicBlock* entry = g.entry();
    for (Instruction* inst : entry->instructions()) {
      if (inst->is_terminator()) continue;
      Instruction* copy = bb->push_back(inst->clone());
      ir::remap_instruction(copy, ctx);
      ctx.insts[inst] = copy;
    }

    // Slow path block holds the original call.
    BasicBlock* slow = caller->create_block_after(bb, bb->name() + ".slow");
    {
      auto owned = bb->take(call);
      slow->push_back(std::move(owned));
      slow->push_back(Instruction::br(cont));
    }
    // Fast path: straight to the continuation.
    BasicBlock* fast = caller->create_block_after(bb, bb->name() + ".fast");
    fast->push_back(Instruction::br(cont));

    Value* cond = ctx.map_value(guard_term->operand(0));
    BasicBlock* true_dest = early_side == 0 ? fast : slow;
    BasicBlock* false_dest = early_side == 0 ? slow : fast;
    bb->push_back(Instruction::cond_br(cond, true_dest, false_dest));

    if (!call->type()->is_void() && call->has_users()) {
      Value* fast_value =
          early_value == nullptr ? m.get_undef(call->type()) : ctx.map_value(early_value);
      Instruction* phi = cont->insert_at(0, Instruction::phi(call->type(), "pi.ret"));
      phi->add_incoming(fast_value, fast);
      phi->add_incoming(call, slow);
      // Everything that used the call now uses the merged value (except the
      // phi itself).
      const auto users = call->users();
      for (Instruction* user :
           std::vector<Instruction*>(users.begin(), users.end())) {
        if (user != phi) user->replace_uses_of(call, phi);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// -functionattrs: infer readnone / readonly / nounwind bottom-up
// ---------------------------------------------------------------------------

class FunctionAttrsPass {
 public:
  bool run(Module& m) {
    struct Effects {
      bool reads = false;
      bool writes = false;
    };
    // Optimistic fixpoint: start with "no effects" and grow until stable.
    const auto funcs = m.functions();
    std::vector<Effects> fx(funcs.size());  // by Function::index()
    bool stable = false;
    for (std::size_t iter = 0; iter < funcs.size() + 2 && !stable; ++iter) {
      stable = true;
      for (Function* f : funcs) {
        Effects e;
        for (BasicBlock* bb : f->blocks()) {
          for (Instruction* inst : bb->instructions()) {
            switch (inst->opcode()) {
              case Opcode::kLoad:
                if (!is_local_pointer(inst->operand(0))) e.reads = true;
                break;
              case Opcode::kStore:
                if (!is_local_pointer(inst->operand(1))) e.writes = true;
                break;
              case Opcode::kMemSet:
                if (!is_local_pointer(inst->operand(0))) e.writes = true;
                break;
              case Opcode::kMemCpy:
                if (!is_local_pointer(inst->operand(0))) e.writes = true;
                if (!is_local_pointer(inst->operand(1))) e.reads = true;
                break;
              case Opcode::kCall: {
                const Effects ce = fx[inst->callee()->index()];
                e.reads |= ce.reads;
                e.writes |= ce.writes;
                // Pointer arguments may expose caller memory to the callee's
                // local-looking accesses; be conservative about them.
                for (const Value* op : inst->operands()) {
                  if (op->type()->is_pointer() && !is_local_pointer(const_cast<Value*>(op))) {
                    e.reads |= ce.reads || ce.writes;
                  }
                }
                break;
              }
              default: break;
            }
          }
        }
        Effects& old = fx[f->index()];
        if (old.reads != e.reads || old.writes != e.writes) {
          old = e;
          stable = false;
        }
      }
    }

    bool changed = false;
    for (Function* f : funcs) {
      const Effects e = fx[f->index()];
      ir::FunctionAttrs attrs;
      attrs.readnone = !e.reads && !e.writes;
      attrs.readonly = !e.writes;
      attrs.nounwind = true;
      if (attrs.readnone != f->attrs().readnone || attrs.readonly != f->attrs().readonly ||
          attrs.nounwind != f->attrs().nounwind) {
        f->attrs() = attrs;
        changed = true;
      }
    }
    return changed;
  }

 private:
  /// Pointer whose reads cannot observe external state: the function's own
  /// allocas (private memory) and constant-data globals (ROMs are pure
  /// functions of nothing, like LLVM's constant memory).
  static bool is_local_pointer(Value* ptr) {
    Value* base = trace_pointer_base(ptr);
    if (const ir::GlobalVariable* g = ir::as_global(base)) return g->is_constant_data();
    const Instruction* inst = ir::as_instruction(base);
    return inst != nullptr && inst->opcode() == Opcode::kAlloca;
  }
};

// ---------------------------------------------------------------------------
// -prune-eh: no exceptions exist in hardware; mark everything nounwind.
// ---------------------------------------------------------------------------

class PruneEHPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      if (!f->attrs().nounwind) {
        f->attrs().nounwind = true;
        changed = true;
      }
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -globalopt
// ---------------------------------------------------------------------------

class GlobalOptPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (std::size_t i = 0; i < m.global_count(); ++i) {
      ir::GlobalVariable* g = m.global(i);
      if (!g->is_constant_data() && never_written(g)) {
        g->set_constant_data(true);
        changed = true;
      }
      if (g->is_constant_data()) changed |= fold_constant_loads(m, g);
    }
    if (changed) remove_dead_instructions(m);
    return changed;
  }

 private:
  static bool never_written(ir::GlobalVariable* g) {
    std::vector<Value*> derived{g};
    for (std::size_t i = 0; i < derived.size(); ++i) {
      const auto& users = derived[i]->users();
      for (Instruction* user : users) {
        switch (user->opcode()) {
          case Opcode::kLoad: break;
          case Opcode::kGep:
          case Opcode::kBitCast:
            if (std::find(derived.begin(), derived.end(), user) == derived.end()) {
              derived.push_back(user);
            }
            break;
          case Opcode::kMemCpy:
            if (user->operand(0) == derived[i]) return false;  // copy INTO it
            break;
          default: return false;  // stores, memset, calls, escapes
        }
      }
    }
    return true;
  }

  /// Loads at compile-time-known offsets of a ROM fold to its initialiser.
  bool fold_constant_loads(Module& m, ir::GlobalVariable* g) {
    bool changed = false;
    const auto& init = g->init();
    auto value_at = [&](std::int64_t idx) -> std::int64_t {
      if (idx < 0 || idx >= static_cast<std::int64_t>(g->element_count())) return 0;
      return idx < static_cast<std::int64_t>(init.size()) ? init[static_cast<std::size_t>(idx)]
                                                          : 0;
    };
    const auto users = g->users();
    for (Instruction* user : std::vector<Instruction*>(users.begin(), users.end())) {
      if (user->parent() == nullptr) continue;
      if (user->opcode() == Opcode::kLoad && user->operand(0) == g) {
        user->replace_all_uses_with(m.get_int(user->type(), value_at(0)));
        user->erase_from_parent();
        changed = true;
      } else if (user->opcode() == Opcode::kGep && user->operand(0) == g) {
        const ConstantInt* idx = ir::as_constant_int(user->operand(1));
        if (idx == nullptr) continue;
        const auto gep_users = user->users();
        for (Instruction* lu :
             std::vector<Instruction*>(gep_users.begin(), gep_users.end())) {
          if (lu->opcode() == Opcode::kLoad && lu->operand(0) == user) {
            lu->replace_all_uses_with(m.get_int(lu->type(), value_at(idx->value())));
            lu->erase_from_parent();
            changed = true;
          }
        }
      }
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -globaldce
// ---------------------------------------------------------------------------

class GlobalDCEPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    // Unreferenced globals.
    for (ir::GlobalVariable* g : m.globals()) {
      if (!g->has_users()) {
        m.erase_global(g);
        changed = true;
      }
    }
    // Uncalled functions (other than main). Iterate: removing one may orphan
    // another.
    bool progress = true;
    while (progress) {
      progress = false;
      for (Function* f : m.functions()) {
        if (f->name() == "main") continue;
        if (ir::collect_call_sites(m, f).empty()) {
          m.erase_function(f);
          progress = true;
          changed = true;
          break;
        }
      }
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -deadargelim
// ---------------------------------------------------------------------------

class DeadArgElimPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      if (f->name() == "main") continue;
      for (int i = static_cast<int>(f->arg_count()) - 1; i >= 0; --i) {
        if (f->arg(static_cast<std::size_t>(i))->has_users()) continue;
        for (Instruction* call : ir::collect_call_sites(m, f)) {
          call->remove_call_arg(static_cast<std::size_t>(i));
        }
        f->remove_arg(static_cast<std::size_t>(i));
        changed = true;
      }
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -ipsccp
// ---------------------------------------------------------------------------

class IPSCCPPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    // 1. Arguments that receive the same constant at every call site.
    for (Function* f : m.functions()) {
      if (f->name() == "main") continue;
      const auto sites = ir::collect_call_sites(m, f);
      if (sites.empty()) continue;
      for (std::size_t i = 0; i < f->arg_count(); ++i) {
        ConstantInt* common = nullptr;
        bool all_same = true;
        for (Instruction* call : sites) {
          ConstantInt* c = ir::as_constant_int(call->operand(i));
          if (c == nullptr || (common != nullptr && common != c)) {
            all_same = false;
            break;
          }
          common = c;
        }
        if (all_same && common != nullptr && f->arg(i)->has_users()) {
          f->arg(i)->replace_all_uses_with(common);
          changed = true;
        }
      }
    }
    // 2. Functions that always return the same constant.
    for (Function* f : m.functions()) {
      if (f->return_type()->is_void()) continue;
      ConstantInt* common = nullptr;
      bool all_same = true;
      bool has_ret = false;
      for (BasicBlock* bb : f->blocks()) {
        Instruction* term = bb->terminator();
        if (term == nullptr || term->opcode() != Opcode::kRet) continue;
        has_ret = true;
        ConstantInt* c = ir::as_constant_int(term->operand(0));
        if (c == nullptr || (common != nullptr && common != c)) {
          all_same = false;
          break;
        }
        common = c;
      }
      if (!has_ret || !all_same || common == nullptr) continue;
      for (Instruction* call : ir::collect_call_sites(m, f)) {
        if (call->has_users()) {
          call->replace_all_uses_with(common);
          changed = true;
        }
      }
    }
    // 3. Intraprocedural SCCP pass over everything.
    changed |= run_sccp(m);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -constmerge
// ---------------------------------------------------------------------------

class ConstMergePass {
 public:
  bool run(Module& m) {
    bool changed = false;
    std::map<std::tuple<ir::Type*, std::size_t, std::vector<std::int64_t>>, ir::GlobalVariable*>
        canon;
    for (ir::GlobalVariable* g : m.globals()) {
      if (!g->is_constant_data()) continue;
      const auto key = std::make_tuple(g->element_type(), g->element_count(), g->init());
      const auto it = canon.find(key);
      if (it == canon.end()) {
        canon.emplace(key, g);
        continue;
      }
      if (g->has_users()) g->replace_all_uses_with(it->second);
      m.erase_global(g);
      changed = true;
    }
    return changed;
  }
};

}  // namespace

bool run_inline(Module& m) { return InlinePass{}.run(m); }
bool run_partial_inliner(Module& m) { return PartialInlinerPass{}.run(m); }
bool run_globalopt(Module& m) { return GlobalOptPass{}.run(m); }
bool run_globaldce(Module& m) { return GlobalDCEPass{}.run(m); }
bool run_deadargelim(Module& m) { return DeadArgElimPass{}.run(m); }
bool run_ipsccp(Module& m) { return IPSCCPPass{}.run(m); }
bool run_functionattrs(Module& m) { return FunctionAttrsPass{}.run(m); }
bool run_prune_eh(Module& m) { return PruneEHPass{}.run(m); }
bool run_constmerge(Module& m) { return ConstMergePass{}.run(m); }

}  // namespace autophase::passes
