// Scalar (SSA-value) optimisation passes of Table 1.
#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "ir/cfg.hpp"
#include "ir/dominators.hpp"
#include "ir/fold.hpp"
#include "ir/loop_info.hpp"
#include "passes/all_passes.hpp"
#include "passes/util.hpp"

namespace autophase::passes {

namespace {

using ir::BasicBlock;
using ir::ConstantInt;
using ir::DominatorTree;
using ir::Function;
using ir::ICmpPred;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Value;

/// Removes `pred`'s entries from `succ`'s phis when the CFG edge is gone.
void remove_phi_edge_if_gone(BasicBlock* succ, BasicBlock* pred) {
  if (succ->has_predecessor(pred)) return;
  for (Instruction* phi : succ->phis()) {
    const int idx = phi->incoming_index_for(pred);
    if (idx >= 0) phi->remove_incoming(static_cast<std::size_t>(idx));
  }
}

/// Replaces bb's terminator with an unconditional branch to `target`,
/// updating phis of abandoned successors.
void replace_terminator_with_br(BasicBlock* bb, BasicBlock* target) {
  Instruction* term = bb->terminator();
  std::vector<BasicBlock*> old_succs = bb->successors();
  bb->erase(term);
  bb->push_back(Instruction::br(target));
  for (BasicBlock* s : old_succs) {
    if (s != target) remove_phi_edge_if_gone(s, bb);
  }
}

// ---------------------------------------------------------------------------
// -instcombine
// ---------------------------------------------------------------------------

class InstCombinePass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(m, *f);
    if (changed) remove_dead_instructions(m);
    return changed;
  }

 private:
  static int log2_exact(const ConstantInt* c) {
    const auto u = static_cast<std::uint64_t>(c->value());
    return c->is_power_of_two() ? __builtin_ctzll(u) : -1;
  }

  bool run_on_function(Module& m, Function& f) {
    bool any = false;
    for (int iter = 0; iter < 4; ++iter) {
      bool changed = false;
      for (BasicBlock* bb : f.blocks()) {
        changed |= combine_block(m, *bb);
      }
      any |= changed;
      if (!changed) break;
    }
    return any;
  }

  bool combine_block(Module& m, BasicBlock& bb) {
    bool changed = false;
    // Block-local store-to-load forwarding state.
    std::unordered_map<Value*, Value*> available;  // pointer -> stored value

    for (Instruction* inst : bb.instructions()) {
      if (inst->parent() == nullptr) continue;  // erased by a previous rule

      if (Value* simplified = simplify_instruction(inst)) {
        inst->replace_all_uses_with(simplified);
        inst->erase_from_parent();
        changed = true;
        continue;
      }

      switch (inst->opcode()) {
        case Opcode::kStore:
          // Any store invalidates other tracked pointers (possible aliases)
          // but establishes its own forwarding value.
          available.clear();
          available[inst->operand(1)] = inst->operand(0);
          break;
        case Opcode::kLoad: {
          const auto it = available.find(inst->operand(0));
          if (it != available.end() && it->second->type() == inst->type()) {
            inst->replace_all_uses_with(it->second);
            inst->erase_from_parent();
            changed = true;
            continue;
          }
          available[inst->operand(0)] = inst;  // later identical loads reuse it
          break;
        }
        case Opcode::kMemSet:
        case Opcode::kMemCpy:
        case Opcode::kCall:
          if (inst->may_write_memory()) available.clear();
          break;
        default: break;
      }

      changed |= combine_one(m, inst);
    }
    return changed;
  }

  bool combine_one(Module& m, Instruction* inst) {
    if (inst->parent() == nullptr) return false;
    bool changed = false;

    if (inst->is_binary()) {
      // Canonicalise: constant operand to the RHS of commutative ops.
      if (inst->is_commutative() && ir::as_constant_int(inst->operand(0)) != nullptr &&
          ir::as_constant_int(inst->operand(1)) == nullptr) {
        Value* a = inst->operand(0);
        Value* b = inst->operand(1);
        inst->set_operand(0, b);
        inst->set_operand(1, a);
        changed = true;
      }
      // sub x, c -> add x, -c (canonical form feeds the add folder).
      if (inst->opcode() == Opcode::kSub) {
        if (ConstantInt* c = ir::as_constant_int(inst->operand(1))) {
          Value* x = inst->operand(0);
          auto add = Instruction::binary(
              Opcode::kAdd, x,
              m.get_int(inst->type(), ir::fold_binary_op(Opcode::kSub, 0, c->value(),
                                                         inst->type()->bits())),
              inst->name());
          Instruction* raw = inst->parent()->insert_before(inst, std::move(add));
          inst->replace_all_uses_with(raw);
          inst->erase_from_parent();
          return true;
        }
      }
      ConstantInt* rc = ir::as_constant_int(inst->operand(1));
      // (x op c1) op c2 -> x op (c1 op c2) for associative ops.
      if (rc != nullptr && inst->is_commutative()) {
        if (Instruction* inner = ir::as_instruction(inst->operand(0));
            inner != nullptr && inner->opcode() == inst->opcode() &&
            inner->users().size() == 1) {
          if (ConstantInt* ic = ir::as_constant_int(inner->operand(1))) {
            inst->set_operand(0, inner->operand(0));
            inst->set_operand(1, m.get_int(inst->type(),
                                           ir::fold_binary_op(inst->opcode(), ic->value(),
                                                              rc->value(),
                                                              inst->type()->bits())));
            return true;
          }
        }
      }
      // Strength reduction on powers of two.
      if (rc != nullptr) {
        const int k = log2_exact(rc);
        if (k >= 0 && k < inst->type()->bits()) {
          Opcode new_op = Opcode::kAdd;
          Value* new_rhs = nullptr;
          if (inst->opcode() == Opcode::kMul) {
            new_op = Opcode::kShl;
            new_rhs = m.get_int(inst->type(), k);
          } else if (inst->opcode() == Opcode::kUDiv) {
            new_op = Opcode::kLShr;
            new_rhs = m.get_int(inst->type(), k);
          } else if (inst->opcode() == Opcode::kURem) {
            new_op = Opcode::kAnd;
            new_rhs = m.get_int(inst->type(), rc->value() - 1);
          }
          if (new_rhs != nullptr) {
            auto repl =
                Instruction::binary(new_op, inst->operand(0), new_rhs, inst->name());
            Instruction* raw = inst->parent()->insert_before(inst, std::move(repl));
            inst->replace_all_uses_with(raw);
            inst->erase_from_parent();
            return true;
          }
        }
      }
      return changed;
    }

    switch (inst->opcode()) {
      case Opcode::kICmp:
        // Canonicalise constant to RHS.
        if (ir::as_constant_int(inst->operand(0)) != nullptr &&
            ir::as_constant_int(inst->operand(1)) == nullptr) {
          Value* a = inst->operand(0);
          Value* b = inst->operand(1);
          inst->set_operand(0, b);
          inst->set_operand(1, a);
          inst->set_icmp_pred(ir::icmp_swapped(inst->icmp_pred()));
          return true;
        }
        return false;
      case Opcode::kZExt:
      case Opcode::kSExt:
        // Collapse same-kind cast chains.
        if (Instruction* inner = ir::as_instruction(inst->operand(0));
            inner != nullptr && inner->opcode() == inst->opcode()) {
          inst->set_operand(0, inner->operand(0));
          return true;
        }
        return false;
      case Opcode::kGep:
        // gep(gep(p, c1), c2) -> gep(p, c1+c2) with constant indices.
        if (Instruction* inner = ir::as_instruction(inst->operand(0));
            inner != nullptr && inner->opcode() == Opcode::kGep) {
          ConstantInt* c1 = ir::as_constant_int(inner->operand(1));
          ConstantInt* c2 = ir::as_constant_int(inst->operand(1));
          if (c1 != nullptr && c2 != nullptr && c1->type() == c2->type()) {
            inst->set_operand(0, inner->operand(0));
            inst->set_operand(1, m.get_int(c1->type(), c1->value() + c2->value()));
            return true;
          }
        }
        return false;
      default: return false;
    }
  }
};

// ---------------------------------------------------------------------------
// -reassociate
// ---------------------------------------------------------------------------

class ReassociatePass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(m, *f);
    if (changed) remove_dead_instructions(m);
    return changed;
  }

 private:
  std::unordered_map<const Value*, int> rank_;

  void compute_ranks(Function& f) {
    rank_.clear();
    int r = 1;
    for (std::size_t i = 0; i < f.arg_count(); ++i) rank_[f.arg(i)] = r++;
    for (BasicBlock* bb : ir::reverse_post_order(f)) {
      for (Instruction* inst : bb->instructions()) rank_[inst] = r++;
    }
  }

  int rank_of(const Value* v) const {
    if (v->is_constant()) return 0;
    const auto it = rank_.find(v);
    return it == rank_.end() ? 1 << 30 : it->second;
  }

  bool run_on_function(Module& m, Function& f) {
    compute_ranks(f);
    bool changed = false;
    for (BasicBlock* bb : f.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        if (inst->parent() == nullptr || !inst->is_commutative()) continue;
        changed |= reassociate_tree(m, inst);
      }
    }
    return changed;
  }

  /// Collects the leaves of a single-use same-opcode tree rooted at `root`.
  void collect_leaves(Instruction* root, std::vector<Value*>& leaves) {
    for (Value* op : root->operands()) {
      Instruction* inner = ir::as_instruction(op);
      if (inner != nullptr && inner->opcode() == root->opcode() &&
          inner->users().size() == 1 && inner->parent() == root->parent()) {
        collect_leaves(inner, leaves);
      } else {
        leaves.push_back(op);
      }
    }
  }

  bool reassociate_tree(Module& m, Instruction* root) {
    std::vector<Value*> leaves;
    collect_leaves(root, leaves);
    if (leaves.size() <= 2) return false;

    // Fold constants together; sort the rest by rank (stable, deterministic).
    std::int64_t const_accum = 0;
    bool has_const = false;
    const Opcode op = root->opcode();
    const int bits = root->type()->bits();
    std::vector<Value*> vars;
    for (Value* leaf : leaves) {
      if (ConstantInt* c = ir::as_constant_int(leaf)) {
        const_accum = has_const
                          ? ir::fold_binary_op(op, const_accum, c->value(), bits)
                          : c->value();
        has_const = true;
      } else {
        vars.push_back(leaf);
      }
    }
    std::stable_sort(vars.begin(), vars.end(),
                     [this](Value* a, Value* b) { return rank_of(a) < rank_of(b); });

    std::vector<Value*> desired = vars;
    if (has_const) desired.push_back(m.get_int(root->type(), const_accum));
    // Identity element may drop out entirely (e.g. +0, |0, ^0, &~0, *1).
    if (has_const && desired.size() > 1) {
      ConstantInt* c = ir::as_constant_int(desired.back());
      const bool identity =
          (op == Opcode::kAdd || op == Opcode::kOr || op == Opcode::kXor) ? c->is_zero()
          : op == Opcode::kMul                                            ? c->is_one()
          : op == Opcode::kAnd ? c->value() == ir::sext_to_64(~0ULL, bits)
                               : false;
      if (identity) desired.pop_back();
    }
    if (desired == leaves) return false;  // already canonical
    if (desired.empty()) return false;

    if (desired.size() == 1) {
      root->replace_all_uses_with(desired[0]);
      root->erase_from_parent();
      return true;
    }

    // Rebuild a left-leaning chain just before the root.
    Value* acc = desired[0];
    for (std::size_t i = 1; i + 1 < desired.size(); ++i) {
      acc = root->parent()->insert_before(
          root, Instruction::binary(op, acc, desired[i], root->name()));
    }
    root->set_operand(0, acc);
    root->set_operand(1, desired.back());
    return true;
  }
};

// ---------------------------------------------------------------------------
// CSE machinery shared by -early-cse and -gvn
// ---------------------------------------------------------------------------

struct ExprKey {
  int opcode = 0;
  int pred = 0;
  const ir::Type* type = nullptr;
  const Value* a = nullptr;
  const Value* b = nullptr;
  const Value* c = nullptr;

  bool operator==(const ExprKey&) const = default;
};

struct ExprKeyHash {
  std::size_t operator()(const ExprKey& k) const noexcept {
    std::size_t h = std::hash<int>{}(k.opcode * 16 + k.pred);
    h ^= std::hash<const void*>{}(k.type) + 0x9e3779b9 + (h << 6) + (h >> 2);
    h ^= std::hash<const void*>{}(k.a) + 0x9e3779b9 + (h << 6) + (h >> 2);
    h ^= std::hash<const void*>{}(k.b) + 0x9e3779b9 + (h << 6) + (h >> 2);
    h ^= std::hash<const void*>{}(k.c) + 0x9e3779b9 + (h << 6) + (h >> 2);
    return h;
  }
};

bool is_cse_candidate(const Instruction* inst) {
  if (inst->is_binary() || inst->is_cast()) return true;
  switch (inst->opcode()) {
    case Opcode::kICmp:
    case Opcode::kSelect:
    case Opcode::kGep: return true;
    default: return false;
  }
}

ExprKey key_for(const Instruction* inst) {
  ExprKey k;
  k.opcode = static_cast<int>(inst->opcode());
  k.type = inst->type();
  if (inst->opcode() == Opcode::kICmp) k.pred = static_cast<int>(inst->icmp_pred());
  const auto& ops = inst->operands();
  k.a = !ops.empty() ? ops[0] : nullptr;
  k.b = ops.size() > 1 ? ops[1] : nullptr;
  k.c = ops.size() > 2 ? ops[2] : nullptr;
  if (inst->is_commutative() && k.b != nullptr && k.a > k.b) std::swap(k.a, k.b);
  return k;
}

// ---------------------------------------------------------------------------
// -early-cse: block-local CSE + load/store forwarding + folding
// ---------------------------------------------------------------------------

class EarlyCSEPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      for (BasicBlock* bb : f->blocks()) changed |= run_on_block(*bb);
    }
    return changed;
  }

 private:
  bool run_on_block(BasicBlock& bb) {
    bool changed = false;
    std::unordered_map<ExprKey, Instruction*, ExprKeyHash> exprs;
    std::unordered_map<Value*, Value*> loads;  // pointer -> available value

    for (Instruction* inst : bb.instructions()) {
      if (inst->parent() == nullptr) continue;
      if (Value* s = simplify_instruction(inst)) {
        inst->replace_all_uses_with(s);
        inst->erase_from_parent();
        changed = true;
        continue;
      }
      if (is_cse_candidate(inst)) {
        const ExprKey k = key_for(inst);
        const auto it = exprs.find(k);
        if (it != exprs.end()) {
          inst->replace_all_uses_with(it->second);
          inst->erase_from_parent();
          changed = true;
        } else {
          exprs.emplace(k, inst);
        }
        continue;
      }
      switch (inst->opcode()) {
        case Opcode::kLoad: {
          const auto it = loads.find(inst->operand(0));
          if (it != loads.end() && it->second->type() == inst->type()) {
            inst->replace_all_uses_with(it->second);
            inst->erase_from_parent();
            changed = true;
          } else {
            loads[inst->operand(0)] = inst;
          }
          break;
        }
        case Opcode::kStore:
          loads.clear();
          loads[inst->operand(1)] = inst->operand(0);
          break;
        case Opcode::kMemSet:
        case Opcode::kMemCpy: loads.clear(); break;
        case Opcode::kCall:
          if (inst->may_write_memory()) loads.clear();
          break;
        default: break;
      }
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -gvn: dominator-scoped value numbering + load elimination
// ---------------------------------------------------------------------------

class GVNPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(*f);
    return changed;
  }

 private:
  struct UndoEntry {
    ExprKey key;
    Instruction* old_expr = nullptr;
    bool had_old = false;
  };

  std::unordered_map<ExprKey, Instruction*, ExprKeyHash> exprs_;
  /// Per-block load availability. Dominator-scoped load CSE would be
  /// unsound for mutable memory: a non-dominating path (e.g. a loop
  /// backedge) can clobber between the two loads. Loads from constant-data
  /// globals (ROMs) are immune to clobbering and are CSE'd through the
  /// dominator-scoped expression table instead (which enforces dominance).
  std::unordered_map<Value*, Value*> block_loads_;
  bool changed_ = false;

  void set_expr(const ExprKey& k, Instruction* v, std::vector<UndoEntry>& undo) {
    UndoEntry u;
    u.key = k;
    const auto it = exprs_.find(k);
    u.had_old = it != exprs_.end();
    if (u.had_old) u.old_expr = it->second;
    undo.push_back(u);
    exprs_[k] = v;
  }

  static bool is_rom_pointer(Value* ptr) {
    const ir::GlobalVariable* g = ir::as_global(trace_pointer_base(ptr));
    return g != nullptr && g->is_constant_data();
  }

  void walk(BasicBlock* bb, const DominatorTree& dt) {
    std::vector<UndoEntry> undo;
    block_loads_.clear();
    for (Instruction* inst : bb->instructions()) {
      if (inst->parent() == nullptr) continue;
      if (Value* s = simplify_instruction(inst)) {
        inst->replace_all_uses_with(s);
        inst->erase_from_parent();
        changed_ = true;
        continue;
      }
      if (is_cse_candidate(inst)) {
        const ExprKey k = key_for(inst);
        const auto it = exprs_.find(k);
        if (it != exprs_.end()) {
          inst->replace_all_uses_with(it->second);
          inst->erase_from_parent();
          changed_ = true;
        } else {
          set_expr(k, inst, undo);
        }
        continue;
      }
      switch (inst->opcode()) {
        case Opcode::kLoad: {
          if (is_rom_pointer(inst->operand(0))) {
            const ExprKey k = key_for(inst);  // (kLoad, type, pointer)
            const auto it = exprs_.find(k);
            if (it != exprs_.end()) {
              inst->replace_all_uses_with(it->second);
              inst->erase_from_parent();
              changed_ = true;
            } else {
              set_expr(k, inst, undo);
            }
            break;
          }
          const auto it = block_loads_.find(inst->operand(0));
          if (it != block_loads_.end() && it->second->type() == inst->type()) {
            inst->replace_all_uses_with(it->second);
            inst->erase_from_parent();
            changed_ = true;
          } else {
            block_loads_[inst->operand(0)] = inst;
          }
          break;
        }
        case Opcode::kStore: {
          block_loads_.clear();
          block_loads_[inst->operand(1)] = inst->operand(0);
          break;
        }
        case Opcode::kMemSet:
        case Opcode::kMemCpy: block_loads_.clear(); break;
        case Opcode::kCall:
          if (inst->may_write_memory()) block_loads_.clear();
          break;
        default: break;
      }
    }
    for (BasicBlock* child : dt.children(bb)) walk(child, dt);
    // Unwind the expression scope (reverse order restores shadowed entries).
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      if (it->had_old) {
        exprs_[it->key] = it->old_expr;
      } else {
        exprs_.erase(it->key);
      }
    }
  }

  bool run_on_function(Function& f) {
    exprs_.clear();
    block_loads_.clear();
    changed_ = false;
    const auto dt = ir::dominators(f);
    if (f.entry() != nullptr) walk(f.entry(), *dt);
    return changed_;
  }
};

// ---------------------------------------------------------------------------
// -sccp: sparse conditional constant propagation
// ---------------------------------------------------------------------------

class SCCPPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(m, *f);
    return changed;
  }

 private:
  enum class State { kUnknown, kConstant, kOverdefined };
  struct Lattice {
    State state = State::kUnknown;
    std::int64_t value = 0;
  };

  std::unordered_map<const Value*, Lattice> lattice_;
  std::unordered_set<const BasicBlock*> executable_;
  std::set<std::pair<const BasicBlock*, const BasicBlock*>> executable_edges_;
  std::vector<const Instruction*> inst_worklist_;
  std::vector<BasicBlock*> block_worklist_;

  Lattice value_of(const Value* v) {
    if (const ConstantInt* c = ir::as_constant_int(v)) return {State::kConstant, c->value()};
    if (v->value_kind() == ir::ValueKind::kUndef) return {State::kConstant, 0};
    if (v->value_kind() == ir::ValueKind::kGlobalVariable) return {State::kOverdefined, 0};
    if (v->value_kind() == ir::ValueKind::kArgument) return {State::kOverdefined, 0};
    return lattice_[v];
  }

  void mark_overdefined(const Instruction* inst) {
    Lattice& l = lattice_[inst];
    if (l.state != State::kOverdefined) {
      l.state = State::kOverdefined;
      push_users(inst);
    }
  }

  void mark_constant(const Instruction* inst, std::int64_t v) {
    Lattice& l = lattice_[inst];
    if (l.state == State::kUnknown) {
      l = {State::kConstant, v};
      push_users(inst);
    } else if (l.state == State::kConstant && l.value != v) {
      l.state = State::kOverdefined;
      push_users(inst);
    }
  }

  void push_users(const Instruction* inst) {
    for (const Instruction* user : inst->users()) inst_worklist_.push_back(user);
  }

  void mark_edge(BasicBlock* from, BasicBlock* to) {
    if (!executable_edges_.insert({from, to}).second) return;
    // New edge: phis in `to` must be revisited.
    for (Instruction* phi : to->phis()) inst_worklist_.push_back(phi);
    if (executable_.insert(to).second) block_worklist_.push_back(to);
  }

  void visit_terminator(Instruction* term) {
    BasicBlock* bb = term->parent();
    switch (term->opcode()) {
      case Opcode::kBr: mark_edge(bb, term->successor(0)); break;
      case Opcode::kCondBr: {
        const Lattice c = value_of(term->operand(0));
        if (c.state == State::kConstant) {
          mark_edge(bb, term->successor(c.value != 0 ? 0 : 1));
        } else if (c.state == State::kOverdefined) {
          mark_edge(bb, term->successor(0));
          mark_edge(bb, term->successor(1));
        }
        break;
      }
      case Opcode::kSwitch: {
        const Lattice c = value_of(term->operand(0));
        if (c.state == State::kConstant) {
          BasicBlock* target = term->successor(0);
          for (std::size_t i = 0; i < term->switch_case_count(); ++i) {
            if (ir::as_constant_int(term->operand(1 + i))->value() == c.value) {
              target = term->successor(1 + i);
              break;
            }
          }
          mark_edge(bb, target);
        } else if (c.state == State::kOverdefined) {
          for (std::size_t i = 0; i < term->successor_count(); ++i) {
            mark_edge(bb, term->successor(i));
          }
        }
        break;
      }
      default: break;
    }
  }

  void visit(const Instruction* inst) {
    if (!executable_.contains(inst->parent())) return;
    if (inst->is_terminator()) {
      visit_terminator(const_cast<Instruction*>(inst));
      return;
    }
    if (inst->type()->is_void()) return;

    if (inst->is_phi()) {
      State s = State::kUnknown;
      std::int64_t value = 0;
      for (std::size_t i = 0; i < inst->incoming_count(); ++i) {
        if (!executable_edges_.contains({inst->incoming_block(i), inst->parent()})) continue;
        const Lattice in = value_of(inst->incoming_value(i));
        if (in.state == State::kOverdefined) {
          s = State::kOverdefined;
          break;
        }
        if (in.state == State::kUnknown) continue;
        if (s == State::kUnknown) {
          s = State::kConstant;
          value = in.value;
        } else if (value != in.value) {
          s = State::kOverdefined;
          break;
        }
      }
      if (s == State::kConstant) {
        mark_constant(inst, value);
      } else if (s == State::kOverdefined) {
        mark_overdefined(inst);
      }
      return;
    }

    // Non-deterministic sources.
    switch (inst->opcode()) {
      case Opcode::kLoad:
      case Opcode::kCall:
      case Opcode::kAlloca:
      case Opcode::kGep: mark_overdefined(inst); return;
      default: break;
    }

    // Pure ops: fold when every operand is constant.
    std::vector<std::int64_t> vals;
    for (const Value* op : inst->operands()) {
      const Lattice l = value_of(op);
      if (l.state == State::kOverdefined) {
        mark_overdefined(inst);
        return;
      }
      if (l.state == State::kUnknown) return;  // wait for more information
      vals.push_back(l.value);
    }
    const int bits = inst->type()->is_int() ? inst->type()->bits() : 64;
    if (inst->is_binary()) {
      mark_constant(inst, ir::fold_binary_op(inst->opcode(), vals[0], vals[1], bits));
    } else if (inst->opcode() == Opcode::kICmp) {
      const int src_bits =
          inst->operand(0)->type()->is_int() ? inst->operand(0)->type()->bits() : 64;
      mark_constant(inst,
                    ir::fold_icmp_op(inst->icmp_pred(), vals[0], vals[1], src_bits) ? 1 : 0);
    } else if (inst->opcode() == Opcode::kSelect) {
      mark_constant(inst, vals[0] != 0 ? vals[1] : vals[2]);
    } else if (inst->opcode() == Opcode::kZExt) {
      mark_constant(inst, static_cast<std::int64_t>(ir::zext_mask(
                              vals[0], inst->operand(0)->type()->bits())));
    } else if (inst->opcode() == Opcode::kSExt) {
      mark_constant(inst, vals[0]);
    } else if (inst->opcode() == Opcode::kTrunc) {
      mark_constant(inst, ir::sext_to_64(static_cast<std::uint64_t>(vals[0]), bits));
    } else {
      mark_overdefined(inst);
    }
  }

  bool run_on_function(Module& m, Function& f) {
    lattice_.clear();
    executable_.clear();
    executable_edges_.clear();
    inst_worklist_.clear();
    block_worklist_.clear();

    if (f.entry() == nullptr) return false;
    executable_.insert(f.entry());
    block_worklist_.push_back(f.entry());

    while (!block_worklist_.empty() || !inst_worklist_.empty()) {
      while (!inst_worklist_.empty()) {
        const Instruction* inst = inst_worklist_.back();
        inst_worklist_.pop_back();
        if (inst->parent() != nullptr) visit(inst);
      }
      while (!block_worklist_.empty()) {
        BasicBlock* bb = block_worklist_.back();
        block_worklist_.pop_back();
        for (Instruction* inst : bb->instructions()) visit(inst);
      }
    }

    // Apply: replace constant-valued instructions, fold branches.
    bool changed = false;
    for (BasicBlock* bb : f.blocks()) {
      if (!executable_.contains(bb)) continue;
      for (Instruction* inst : bb->instructions()) {
        if (inst->type()->is_void() || inst->is_terminator()) continue;
        const auto it = lattice_.find(inst);
        if (it != lattice_.end() && it->second.state == State::kConstant &&
            inst->type()->is_int()) {
          if (inst->has_users()) {
            inst->replace_all_uses_with(m.get_int(inst->type(), it->second.value));
            changed = true;
          }
          if (!inst->has_side_effects() && !inst->has_users() &&
              inst->opcode() != Opcode::kCall) {
            inst->erase_from_parent();
            changed = true;
          }
        }
      }
    }
    for (BasicBlock* bb : f.blocks()) {
      Instruction* term = bb->terminator();
      if (term == nullptr || term->opcode() != Opcode::kCondBr) continue;
      if (ConstantInt* c = ir::as_constant_int(term->operand(0))) {
        replace_terminator_with_br(bb, term->successor(c->is_zero() ? 1 : 0));
        changed = true;
      }
    }
    if (changed) {
      remove_unreachable_blocks(f);
      remove_dead_instructions(f);
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -adce: aggressive dead code elimination
// ---------------------------------------------------------------------------

class ADCEPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(m, *f);
    return changed;
  }

 private:
  bool run_on_function(Module& m, Function& f) {
    std::unordered_set<const Instruction*> live;
    std::vector<const Instruction*> worklist;
    for (BasicBlock* bb : f.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        // Roots: terminators, memory writes, and calls that are not provably
        // pure (readnone calls are only live through their users).
        const bool non_pure_call =
            inst->opcode() == Opcode::kCall &&
            !(inst->callee() != nullptr && inst->callee()->attrs().readnone);
        if (inst->is_terminator() || inst->has_side_effects() || non_pure_call) {
          if (live.insert(inst).second) worklist.push_back(inst);
        }
      }
    }
    while (!worklist.empty()) {
      const Instruction* inst = worklist.back();
      worklist.pop_back();
      for (const Value* op : inst->operands()) {
        const Instruction* def = ir::as_instruction(op);
        if (def != nullptr && live.insert(def).second) worklist.push_back(def);
      }
    }

    bool changed = false;
    for (BasicBlock* bb : f.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        if (live.contains(inst)) continue;
        if (!inst->type()->is_void() && inst->has_users()) {
          inst->replace_all_uses_with(m.get_undef(inst->type()));
        }
        inst->erase_from_parent();
        changed = true;
      }
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -dse: dead store elimination
// ---------------------------------------------------------------------------

class DSEPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      for (BasicBlock* bb : f->blocks()) changed |= run_on_block(*bb);
      changed |= remove_write_only_allocas(*f);
    }
    return changed;
  }

 private:
  bool run_on_block(BasicBlock& bb) {
    bool changed = false;
    std::unordered_map<Value*, Instruction*> later_store;
    const auto insts = bb.instructions();
    for (auto it = insts.rbegin(); it != insts.rend(); ++it) {
      Instruction* inst = *it;
      if (inst->opcode() == Opcode::kStore) {
        Value* ptr = inst->operand(1);
        const auto found = later_store.find(ptr);
        if (found != later_store.end()) {
          inst->erase_from_parent();
          changed = true;
        } else {
          later_store[ptr] = inst;
        }
        continue;
      }
      if (inst->may_read_memory()) later_store.clear();
      if (inst->opcode() == Opcode::kMemSet || inst->opcode() == Opcode::kMemCpy) {
        later_store.clear();  // partial-overlap writes are not tracked
      }
    }
    return changed;
  }

  /// Deletes stores into allocas that are never read and never escape.
  bool remove_write_only_allocas(Function& f) {
    bool changed = false;
    if (f.entry() == nullptr) return false;
    // Snapshot the allocas up front: the per-alloca rewrite below erases
    // stores/geps that would otherwise still sit in a full-block snapshot.
    std::vector<Instruction*> allocas;
    for (Instruction* inst : f.entry()->instructions()) {
      if (inst->opcode() == Opcode::kAlloca) allocas.push_back(inst);
    }
    for (Instruction* alloca_inst : allocas) {
      std::vector<Instruction*> derived{alloca_inst};
      std::vector<Instruction*> writers;
      bool ok = true;
      for (std::size_t i = 0; i < derived.size() && ok; ++i) {
        for (Instruction* user : derived[i]->users()) {
          switch (user->opcode()) {
            case Opcode::kGep:
            case Opcode::kBitCast:
              if (std::find(derived.begin(), derived.end(), user) == derived.end()) {
                derived.push_back(user);
              }
              break;
            case Opcode::kStore:
              if (user->operand(0) == derived[i]) {
                ok = false;  // address escapes through a store
              } else {
                writers.push_back(user);
              }
              break;
            case Opcode::kMemSet:
              if (user->operand(0) == derived[i]) {
                writers.push_back(user);
              } else {
                ok = false;
              }
              break;
            default: ok = false; break;  // loads, memcpy, calls, compares...
          }
          if (!ok) break;
        }
      }
      if (!ok || writers.empty()) continue;
      for (Instruction* w : writers) {
        if (w->parent() != nullptr) w->erase_from_parent();
      }
      // Derived geps and the alloca are now dead; generic DCE reaps them.
      changed = true;
    }
    if (changed) remove_dead_instructions(f);
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -sink
// ---------------------------------------------------------------------------

class SinkPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(*f);
    return changed;
  }

 private:
  bool run_on_function(Function& f) {
    const auto li = ir::loop_info(f);
    bool changed = false;
    for (BasicBlock* bb : ir::post_order(f)) {
      for (Instruction* inst : bb->instructions()) {
        changed |= try_sink(inst, *li);
      }
    }
    return changed;
  }

  bool try_sink(Instruction* inst, const ir::LoopInfo& li) {
    if (!inst->is_pure() || !inst->has_users()) return false;
    BasicBlock* target = nullptr;
    for (const Instruction* user : inst->users()) {
      if (user->is_phi()) return false;  // phi uses live on edges
      if (user->parent() == inst->parent()) return false;
      if (target == nullptr) {
        target = user->parent();
      } else if (target != user->parent()) {
        return false;
      }
    }
    if (target == nullptr) return false;
    // Never sink into a deeper loop (it would re-execute per iteration).
    if (li.depth_of(target) > li.depth_of(inst->parent())) return false;

    Instruction* first_user = nullptr;
    for (Instruction* cand : target->instructions()) {
      if (cand->uses_value(inst)) {
        first_user = cand;
        break;
      }
    }
    if (first_user == nullptr || first_user->is_phi()) return false;
    auto owned = inst->parent()->take(inst);
    target->insert_before(first_user, std::move(owned));
    return true;
  }
};

// ---------------------------------------------------------------------------
// -codegenprepare: duplicate/sink address computation next to users
// ---------------------------------------------------------------------------

class CodeGenPreparePass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      for (BasicBlock* bb : f->blocks()) {
        for (Instruction* inst : bb->instructions()) {
          changed |= try_sink_to_user(inst);
        }
      }
    }
    return changed;
  }

 private:
  /// Sinks single-use geps/casts/compares into the user's block regardless
  /// of loop depth (backend-oriented: shortens live ranges across FSM
  /// states; can pessimise loops, which is part of the ordering game).
  bool try_sink_to_user(Instruction* inst) {
    switch (inst->opcode()) {
      case Opcode::kGep:
      case Opcode::kZExt:
      case Opcode::kSExt:
      case Opcode::kTrunc:
      case Opcode::kBitCast:
      case Opcode::kICmp: break;
      default: return false;
    }
    if (inst->users().size() != 1) return false;
    Instruction* user = inst->users().front();
    if (user->is_phi() || user->parent() == inst->parent()) return false;
    auto owned = inst->parent()->take(inst);
    user->parent()->insert_before(user, std::move(owned));
    return true;
  }
};

// ---------------------------------------------------------------------------
// -correlated-propagation
// ---------------------------------------------------------------------------

class CorrelatedPropagationPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(m, *f);
    return changed;
  }

 private:
  bool replace_in_region(const DominatorTree& dt, BasicBlock* region_root, Value* from,
                         Value* to) {
    if (from->is_constant()) return false;
    bool changed = false;
    const auto users = from->users();
    for (Instruction* user :
         std::vector<Instruction*>(users.begin(), users.end())) {
      if (user->parent() == nullptr) continue;
      if (user->is_phi()) {
        for (std::size_t i = 0; i < user->incoming_count(); ++i) {
          if (user->incoming_value(i) == from &&
              dt.is_reachable(user->incoming_block(i)) &&
              dt.dominates(region_root, user->incoming_block(i))) {
            user->set_incoming_value(i, to);
            changed = true;
          }
        }
        continue;
      }
      if (dt.is_reachable(user->parent()) && dt.dominates(region_root, user->parent())) {
        user->replace_uses_of(from, to);
        changed = true;
      }
    }
    return changed;
  }

  bool run_on_function(Module& m, Function& f) {
    const auto tree = ir::dominators(f);
    const DominatorTree& dt = *tree;
    bool changed = false;
    for (BasicBlock* bb : f.blocks()) {
      Instruction* term = bb->terminator();
      if (term == nullptr || term->opcode() != Opcode::kCondBr) continue;
      Value* cond = term->operand(0);
      for (int side = 0; side < 2; ++side) {
        BasicBlock* succ = term->successor(static_cast<std::size_t>(side));
        const auto preds = succ->unique_predecessors();
        if (preds.size() != 1 || preds[0] != bb || succ == bb) continue;
        if (term->successor(0) == term->successor(1)) continue;
        // The branch condition itself has a known value in the region.
        changed |= replace_in_region(dt, succ, cond, m.get_i1(side == 0));
        // Equality information: x == C on the eq-true / ne-false side.
        Instruction* cmp = ir::as_instruction(cond);
        if (cmp != nullptr && cmp->opcode() == Opcode::kICmp) {
          const bool eq_side = (cmp->icmp_pred() == ICmpPred::kEq && side == 0) ||
                               (cmp->icmp_pred() == ICmpPred::kNe && side == 1);
          if (eq_side) {
            Value* x = cmp->operand(0);
            Value* c = cmp->operand(1);
            if (ir::as_constant_int(c) != nullptr) changed |= replace_in_region(dt, succ, x, c);
          }
        }
      }
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -jump-threading
// ---------------------------------------------------------------------------

class JumpThreadingPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(*f);
    return changed;
  }

 private:
  bool run_on_function(Function& f) {
    bool changed = false;
    // Threading rewires edges, which can invalidate dominance facts; the
    // tree is fetched again after every successful rewrite, and the cache
    // rebuilds it because the CFG changed.
    auto dt = ir::dominators(f);
    for (BasicBlock* bb : f.blocks()) {
      if (bb == f.entry()) continue;
      if (thread_block(*bb, *dt)) {
        changed = true;
        dt = ir::dominators(f);
      }
    }
    if (changed) remove_unreachable_blocks(f);
    return changed;
  }

  bool thread_block(BasicBlock& bb, const DominatorTree& dt) {
    Instruction* term = bb.terminator();
    if (term == nullptr || term->opcode() != Opcode::kCondBr) return false;
    if (term->successor(0) == term->successor(1)) return false;

    // Accept: block of phis (+ optionally one icmp phi-vs-constant) + condbr.
    Instruction* cmp = nullptr;
    Instruction* branch_phi = nullptr;
    for (Instruction* inst : bb.instructions()) {
      if (inst->is_phi() || inst == term) continue;
      if (cmp == nullptr && inst->opcode() == Opcode::kICmp && term->operand(0) == inst) {
        cmp = inst;
        continue;
      }
      return false;
    }
    if (cmp != nullptr) {
      Instruction* p = ir::as_instruction(cmp->operand(0));
      if (p == nullptr || !p->is_phi() || p->parent() != &bb) return false;
      if (ir::as_constant_int(cmp->operand(1)) == nullptr) return false;
      branch_phi = p;
      // The icmp must feed only the branch.
      for (const Instruction* u : cmp->users()) {
        if (u != term) return false;
      }
    } else {
      Instruction* p = ir::as_instruction(term->operand(0));
      if (p == nullptr || !p->is_phi() || p->parent() != &bb) return false;
      branch_phi = p;
    }

    // Every phi of bb may only feed the icmp / branch or successor phis.
    for (Instruction* phi : bb.phis()) {
      for (const Instruction* u : phi->users()) {
        if (u == cmp || u == term || u == phi) continue;
        if (u->is_phi() && (u->parent() == term->successor(0) ||
                            u->parent() == term->successor(1))) {
          continue;
        }
        return false;
      }
    }

    bool changed = false;
    for (BasicBlock* pred : bb.unique_predecessors()) {
      ConstantInt* incoming = ir::as_constant_int(branch_phi->incoming_for_block(pred));
      if (incoming == nullptr) continue;
      bool cond_value;
      if (cmp != nullptr) {
        const ConstantInt* rhs = ir::as_constant_int(cmp->operand(1));
        cond_value = ir::fold_icmp_op(cmp->icmp_pred(), incoming->value(), rhs->value(),
                                      incoming->type()->bits());
      } else {
        cond_value = !incoming->is_zero();
      }
      BasicBlock* target = term->successor(cond_value ? 0 : 1);

      // Compute the values successor phis would receive along pred->target
      // and check they are available at pred.
      bool safe = true;
      std::vector<std::pair<Instruction*, Value*>> phi_updates;
      for (Instruction* tphi : target->phis()) {
        Value* via_bb = tphi->incoming_for_block(&bb);
        if (via_bb == nullptr) {
          safe = false;
          break;
        }
        Value* direct = via_bb;
        if (Instruction* def = ir::as_instruction(via_bb); def != nullptr &&
                                                           def->parent() == &bb) {
          if (!def->is_phi()) {
            safe = false;
            break;
          }
          direct = def->incoming_for_block(pred);
          if (direct == nullptr) {
            safe = false;
            break;
          }
        }
        if (Instruction* def = ir::as_instruction(direct)) {
          if (!dt.is_reachable(def->parent()) || !dt.is_reachable(pred) ||
              !dt.dominates(def->parent(), pred)) {
            safe = false;
            break;
          }
        }
        // A pre-existing pred->target edge must agree on the value.
        if (tphi->incoming_index_for(pred) >= 0 &&
            tphi->incoming_for_block(pred) != direct) {
          safe = false;
          break;
        }
        phi_updates.emplace_back(tphi, direct);
      }
      if (!safe) continue;

      // Rewire pred directly to target.
      pred->terminator()->replace_successor(&bb, target);
      for (auto& [tphi, v] : phi_updates) {
        if (tphi->incoming_index_for(pred) < 0) tphi->add_incoming(v, pred);
      }
      for (Instruction* phi : bb.phis()) {
        const int idx = phi->incoming_index_for(pred);
        if (idx >= 0 && !bb.has_predecessor(pred)) {
          phi->remove_incoming(static_cast<std::size_t>(idx));
        }
      }
      changed = true;
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -memcpyopt: form memset/memcpy from store runs
// ---------------------------------------------------------------------------

class MemCpyOptPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      for (BasicBlock* bb : f->blocks()) changed |= run_on_block(m, *bb);
    }
    if (changed) remove_dead_instructions(m);
    return changed;
  }

 private:
  struct StoreInfo {
    Instruction* store = nullptr;
    Value* base = nullptr;
    std::int64_t index = 0;
    ConstantInt* const_value = nullptr;  // memset candidate
    // memcpy candidate: value is a single-use load of (src_base, index).
    Instruction* load = nullptr;
    Value* src_base = nullptr;
  };

  static bool decompose_pointer(Value* ptr, Value*& base, std::int64_t& index) {
    if (Instruction* gep = ir::as_instruction(ptr); gep != nullptr &&
                                                    gep->opcode() == Opcode::kGep) {
      if (ConstantInt* c = ir::as_constant_int(gep->operand(1))) {
        base = gep->operand(0);
        index = c->value();
        return true;
      }
      return false;
    }
    base = ptr;
    index = 0;
    return true;
  }

  bool run_on_block(Module& m, BasicBlock& bb) {
    constexpr std::size_t kMinRun = 4;
    bool changed = false;
    std::vector<StoreInfo> run;

    auto flush = [&]() {
      if (run.size() >= kMinRun) changed |= emit_run(m, bb, run);
      run.clear();
    };

    const auto insts = bb.instructions();
    for (std::size_t pos = 0; pos < insts.size(); ++pos) {
      Instruction* inst = insts[pos];
      if (inst->parent() == nullptr) continue;
      if (inst->opcode() == Opcode::kStore) {
        StoreInfo info;
        info.store = inst;
        if (!decompose_pointer(inst->operand(1), info.base, info.index)) {
          flush();
          continue;
        }
        info.const_value = ir::as_constant_int(inst->operand(0));
        if (Instruction* ld = ir::as_instruction(inst->operand(0));
            ld != nullptr && ld->opcode() == Opcode::kLoad && ld->users().size() == 1 &&
            ld->parent() == &bb) {
          std::int64_t src_index = 0;
          Value* src_base = nullptr;
          if (decompose_pointer(ld->operand(0), src_base, src_index) &&
              src_index == info.index) {
            info.load = ld;
            info.src_base = src_base;
          }
        }
        // Extend the run if contiguous and of matching kind.
        if (!run.empty()) {
          const StoreInfo& prev = run.back();
          const bool same_memset = prev.const_value != nullptr &&
                                   info.const_value == prev.const_value &&
                                   info.base == prev.base && info.index == prev.index + 1;
          const bool same_memcpy = prev.load != nullptr && info.load != nullptr &&
                                   info.base == prev.base &&
                                   info.src_base == prev.src_base &&
                                   info.index == prev.index + 1;
          if (!(same_memset || same_memcpy)) flush();
        }
        if (run.empty() && info.const_value == nullptr && info.load == nullptr) continue;
        run.push_back(info);
        continue;
      }
      // The only memory op allowed inside a forming run is a load that
      // immediately feeds the next store of the run (strict
      // load;store;load;store shape); anything else that touches memory
      // breaks the run.
      if (inst->may_read_memory() || inst->may_write_memory()) {
        const bool feeds_next_store =
            inst->opcode() == Opcode::kLoad && inst->users().size() == 1 &&
            pos + 1 < insts.size() && insts[pos + 1]->opcode() == Opcode::kStore &&
            insts[pos + 1]->operand(0) == inst;
        if (!feeds_next_store) flush();
      }
    }
    flush();
    return changed;
  }

  /// A base whose allocation provably cannot overlap another distinct base.
  static bool is_distinct_allocation(Value* base) {
    Value* root = trace_pointer_base(base);
    return ir::as_global(root) != nullptr ||
           (ir::as_instruction(root) != nullptr &&
            ir::as_instruction(root)->opcode() == Opcode::kAlloca);
  }

  bool emit_run(Module& m, BasicBlock& bb, const std::vector<StoreInfo>& run) {
    const StoreInfo& first = run.front();
    ir::Type* elem = first.store->operand(1)->type()->pointee();
    Value* dst = first.store->operand(1);
    ConstantInt* count = m.get_i64(static_cast<std::int64_t>(run.size()));

    std::unique_ptr<Instruction> intrinsic;
    if (first.const_value != nullptr) {
      intrinsic = Instruction::mem_set(dst, first.const_value, count);
    } else {
      // The element-wise forward copy is only equivalent to a block copy
      // when the regions cannot overlap: both bases must be distinct
      // concrete allocations (allocas / globals).
      if (trace_pointer_base(first.src_base) == trace_pointer_base(first.base) ||
          !is_distinct_allocation(first.src_base) || !is_distinct_allocation(first.base)) {
        return false;
      }
      Value* src = first.load->operand(0);
      if (src->type()->pointee() != elem) return false;
      intrinsic = Instruction::mem_cpy(dst, src, count);
    }
    bb.insert_before(first.store, std::move(intrinsic));
    for (const StoreInfo& si : run) {
      si.store->erase_from_parent();
      if (si.load != nullptr && !si.load->has_users()) si.load->erase_from_parent();
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// -tailcallelim
// ---------------------------------------------------------------------------

class TailCallElimPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(m, *f);
    return changed;
  }

 private:
  struct TailSite {
    Instruction* call = nullptr;
    Instruction* ret = nullptr;
  };

  bool run_on_function(Module& m, Function& f) {
    if (f.entry() == nullptr) return false;
    // Allocas would be re-executed per loop iteration, growing the frame;
    // LLVM handles this with lifetime analysis, we conservatively bail.
    for (BasicBlock* bb : f.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        if (inst->opcode() == Opcode::kAlloca) return false;
      }
    }

    std::vector<TailSite> sites;
    for (BasicBlock* bb : f.blocks()) {
      const auto insts = bb->instructions();
      for (std::size_t i = 0; i + 1 < insts.size(); ++i) {
        Instruction* call = insts[i];
        Instruction* ret = insts[i + 1];
        if (call->opcode() != Opcode::kCall || call->callee() != &f) continue;
        if (ret->opcode() != Opcode::kRet) continue;
        if (f.return_type()->is_void()) {
          if (call->has_users()) continue;
        } else {
          if (ret->operand(0) != call) continue;
          bool only_ret_user = true;
          for (const Instruction* u : call->users()) {
            if (u != ret) only_ret_user = false;
          }
          if (!only_ret_user) continue;
        }
        sites.push_back({call, ret});
      }
    }
    if (sites.empty()) return false;

    BasicBlock* old_entry = f.entry();
    // New entry block branching to the old one.
    BasicBlock* new_entry = f.create_block("tce.entry");
    f.move_block(new_entry, 0);
    new_entry->push_back(Instruction::br(old_entry));

    // One phi per argument in the old entry.
    std::vector<Instruction*> phis;
    for (std::size_t i = 0; i < f.arg_count(); ++i) {
      ir::Argument* a = f.arg(i);
      Instruction* phi =
          old_entry->insert_at(i, Instruction::phi(a->type(), a->name() + ".tc"));
      a->replace_all_uses_with(phi);
      phi->add_incoming(a, new_entry);
      phis.push_back(phi);
    }

    for (const TailSite& site : sites) {
      BasicBlock* bb = site.call->parent();
      for (std::size_t i = 0; i < f.arg_count(); ++i) {
        phis[i]->add_incoming(site.call->operand(i), bb);
      }
      bb->erase(site.ret);
      site.call->replace_all_uses_with(m.get_undef(site.call->type()));
      bb->erase(site.call);
      bb->push_back(Instruction::br(old_entry));
    }
    return true;
  }
};

}  // namespace

bool run_instcombine(Module& m) { return InstCombinePass{}.run(m); }
bool run_reassociate(Module& m) { return ReassociatePass{}.run(m); }
bool run_early_cse(Module& m) { return EarlyCSEPass{}.run(m); }
bool run_gvn(Module& m) { return GVNPass{}.run(m); }
bool run_sccp(Module& m) { return SCCPPass{}.run(m); }
bool run_adce(Module& m) { return ADCEPass{}.run(m); }
bool run_dse(Module& m) { return DSEPass{}.run(m); }
bool run_sink(Module& m) { return SinkPass{}.run(m); }
bool run_correlated_propagation(Module& m) { return CorrelatedPropagationPass{}.run(m); }
bool run_jump_threading(Module& m) { return JumpThreadingPass{}.run(m); }
bool run_codegenprepare(Module& m) { return CodeGenPreparePass{}.run(m); }
bool run_memcpyopt(Module& m) { return MemCpyOptPass{}.run(m); }
bool run_tailcallelim(Module& m) { return TailCallElimPass{}.run(m); }

}  // namespace autophase::passes
