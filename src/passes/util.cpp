#include "passes/util.hpp"

#include <algorithm>
#include <utility>

#include "ir/cfg.hpp"
#include "ir/fold.hpp"
#include "ir/id_table.hpp"

namespace autophase::passes {

using ir::BasicBlock;
using ir::ConstantInt;
using ir::Function;
using ir::ICmpPred;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Value;

bool is_trivially_dead(const Instruction* inst) {
  if (inst->has_users() || inst->is_terminator()) return false;
  if (inst->opcode() == Opcode::kCall) {
    const ir::Function* callee = inst->callee();
    return callee != nullptr && callee->attrs().readnone;
  }
  return !inst->has_side_effects();
}

std::size_t remove_dead_instructions(Function& f) {
  std::size_t removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (BasicBlock* bb : f.blocks()) {
      const auto insts = bb->instructions();
      for (auto it = insts.rbegin(); it != insts.rend(); ++it) {
        if (is_trivially_dead(*it)) {
          (*it)->erase_from_parent();
          ++removed;
          changed = true;
        }
      }
    }
  }
  return removed;
}

std::size_t remove_dead_instructions(Module& m) {
  std::size_t removed = 0;
  for (Function* f : m.functions()) removed += remove_dead_instructions(*f);
  return removed;
}

namespace {

ConstantInt* const_of(Module* m, ir::Type* type, std::int64_t v) { return m->get_int(type, v); }

bool is_all_ones(const ConstantInt* c) {
  return c->value() == ir::sext_to_64(~0ULL, c->type()->bits());
}

}  // namespace

Value* simplify_instruction(Instruction* inst) {
  Module* m = inst->parent() != nullptr ? inst->parent()->parent()->parent() : nullptr;
  if (m == nullptr) return nullptr;
  const Opcode op = inst->opcode();

  if (inst->is_binary()) {
    Value* lhs = inst->operand(0);
    Value* rhs = inst->operand(1);
    ConstantInt* lc = ir::as_constant_int(lhs);
    ConstantInt* rc = ir::as_constant_int(rhs);
    const int bits = inst->type()->bits();

    // Constant folding.
    if (lc != nullptr && rc != nullptr) {
      return const_of(m, inst->type(), ir::fold_binary_op(op, lc->value(), rc->value(), bits));
    }
    switch (op) {
      case Opcode::kAdd:
        if (rc != nullptr && rc->is_zero()) return lhs;
        if (lc != nullptr && lc->is_zero()) return rhs;
        break;
      case Opcode::kSub:
        if (rc != nullptr && rc->is_zero()) return lhs;
        if (lhs == rhs) return const_of(m, inst->type(), 0);
        break;
      case Opcode::kMul:
        if (rc != nullptr && rc->is_zero()) return rhs;
        if (lc != nullptr && lc->is_zero()) return lhs;
        if (rc != nullptr && rc->is_one()) return lhs;
        if (lc != nullptr && lc->is_one()) return rhs;
        break;
      case Opcode::kSDiv:
      case Opcode::kUDiv:
        if (rc != nullptr && rc->is_one()) return lhs;
        if (lc != nullptr && lc->is_zero()) return lhs;  // 0/x == 0
        break;
      case Opcode::kSRem:
      case Opcode::kURem:
        if (rc != nullptr && rc->is_one()) return const_of(m, inst->type(), 0);
        if (lc != nullptr && lc->is_zero()) return lhs;
        break;
      case Opcode::kAnd:
        if (lhs == rhs) return lhs;
        if (rc != nullptr && rc->is_zero()) return rhs;
        if (lc != nullptr && lc->is_zero()) return lhs;
        if (rc != nullptr && is_all_ones(rc)) return lhs;
        if (lc != nullptr && is_all_ones(lc)) return rhs;
        break;
      case Opcode::kOr:
        if (lhs == rhs) return lhs;
        if (rc != nullptr && rc->is_zero()) return lhs;
        if (lc != nullptr && lc->is_zero()) return rhs;
        if (rc != nullptr && is_all_ones(rc)) return rhs;
        if (lc != nullptr && is_all_ones(lc)) return lhs;
        break;
      case Opcode::kXor:
        if (lhs == rhs) return const_of(m, inst->type(), 0);
        if (rc != nullptr && rc->is_zero()) return lhs;
        if (lc != nullptr && lc->is_zero()) return rhs;
        break;
      case Opcode::kShl:
      case Opcode::kLShr:
      case Opcode::kAShr:
        if (rc != nullptr && ir::zext_mask(rc->value(), bits) %
                                     static_cast<std::uint64_t>(bits) ==
                                 0) {
          return lhs;  // shift by multiple of width is identity (mod semantics)
        }
        if (lc != nullptr && lc->is_zero()) return lhs;
        break;
      default: break;
    }
    return nullptr;
  }

  switch (op) {
    case Opcode::kICmp: {
      Value* lhs = inst->operand(0);
      Value* rhs = inst->operand(1);
      ConstantInt* lc = ir::as_constant_int(lhs);
      ConstantInt* rc = ir::as_constant_int(rhs);
      const int bits = lhs->type()->is_int() ? lhs->type()->bits() : 64;
      if (lc != nullptr && rc != nullptr) {
        return m->get_i1(ir::fold_icmp_op(inst->icmp_pred(), lc->value(), rc->value(), bits));
      }
      if (lhs == rhs) {
        switch (inst->icmp_pred()) {
          case ICmpPred::kEq:
          case ICmpPred::kSle:
          case ICmpPred::kSge:
          case ICmpPred::kUle:
          case ICmpPred::kUge: return m->get_i1(true);
          default: return m->get_i1(false);
        }
      }
      return nullptr;
    }
    case Opcode::kSelect: {
      if (ConstantInt* c = ir::as_constant_int(inst->operand(0))) {
        return c->is_zero() ? inst->operand(2) : inst->operand(1);
      }
      if (inst->operand(1) == inst->operand(2)) return inst->operand(1);
      return nullptr;
    }
    case Opcode::kZExt: {
      if (ConstantInt* c = ir::as_constant_int(inst->operand(0))) {
        return const_of(m, inst->type(),
                        static_cast<std::int64_t>(
                            ir::zext_mask(c->value(), c->type()->bits())));
      }
      return nullptr;
    }
    case Opcode::kSExt: {
      if (ConstantInt* c = ir::as_constant_int(inst->operand(0))) {
        return const_of(m, inst->type(), c->value());  // already sign-extended
      }
      return nullptr;
    }
    case Opcode::kTrunc: {
      if (ConstantInt* c = ir::as_constant_int(inst->operand(0))) {
        return const_of(m, inst->type(),
                        ir::sext_to_64(static_cast<std::uint64_t>(c->value()),
                                       inst->type()->bits()));
      }
      // trunc(zext/sext x to T) back to the source type is x itself.
      if (Instruction* src = ir::as_instruction(inst->operand(0))) {
        if ((src->opcode() == Opcode::kZExt || src->opcode() == Opcode::kSExt) &&
            src->operand(0)->type() == inst->type()) {
          return src->operand(0);
        }
      }
      return nullptr;
    }
    case Opcode::kBitCast:
      if (inst->operand(0)->type() == inst->type()) return inst->operand(0);
      if (Instruction* src = ir::as_instruction(inst->operand(0))) {
        if (src->opcode() == Opcode::kBitCast && src->operand(0)->type() == inst->type()) {
          return src->operand(0);
        }
      }
      return nullptr;
    case Opcode::kGep:
      if (ConstantInt* c = ir::as_constant_int(inst->operand(1)); c != nullptr && c->is_zero()) {
        return inst->operand(0);
      }
      return nullptr;
    case Opcode::kPhi: {
      Value* common = nullptr;
      for (std::size_t i = 0; i < inst->incoming_count(); ++i) {
        Value* v = inst->incoming_value(i);
        if (v == inst) continue;  // self-reference
        if (common == nullptr) {
          common = v;
        } else if (common != v) {
          return nullptr;
        }
      }
      return common;  // nullptr if the phi is empty / pure self-cycle
    }
    default: return nullptr;
  }
}

// ---------------------------------------------------------------------------
// Alloca promotion (mem2reg core)
// ---------------------------------------------------------------------------

namespace {

bool is_promotable(const Instruction* alloca_inst) {
  if (alloca_inst->opcode() != Opcode::kAlloca || alloca_inst->alloca_count() != 1) return false;
  for (const Instruction* user : alloca_inst->users()) {
    if (user->opcode() == Opcode::kLoad && user->operand(0) == alloca_inst) continue;
    if (user->opcode() == Opcode::kStore && user->operand(1) == alloca_inst &&
        user->operand(0) != alloca_inst) {
      continue;
    }
    return false;
  }
  return true;
}

/// alloca_index of an instruction that is not a promoted alloca.
constexpr std::size_t kNotPromoted = static_cast<std::size_t>(-1);

struct PromotionState {
  std::vector<Instruction*> allocas;
  ir::IdTable<Instruction, std::size_t> alloca_index;
  // Per block: phis placed for each alloca.
  ir::IdTable<BasicBlock, std::vector<std::pair<std::size_t, Instruction*>>> placed;
  std::vector<Value*> current;  // renaming stack snapshot (save/restore)
};

void rename_walk(BasicBlock* bb, const ir::DominatorTree& dt, PromotionState& st, Module* m) {
  std::vector<std::pair<std::size_t, Value*>> saved;

  for (const auto& [idx, phi] : st.placed[bb]) {
    saved.emplace_back(idx, st.current[idx]);
    st.current[idx] = phi;
  }

  for (Instruction* inst : bb->instructions()) {
    if (inst->opcode() == Opcode::kLoad) {
      const Instruction* a = ir::as_instruction(inst->operand(0));
      const std::size_t idx = a != nullptr ? st.alloca_index.find(a) : kNotPromoted;
      if (idx == kNotPromoted) continue;
      Value* v = st.current[idx];
      if (v == nullptr) v = m->get_undef(inst->type());
      inst->replace_all_uses_with(v);
      inst->erase_from_parent();
    } else if (inst->opcode() == Opcode::kStore) {
      const Instruction* a = ir::as_instruction(inst->operand(1));
      const std::size_t idx = a != nullptr ? st.alloca_index.find(a) : kNotPromoted;
      if (idx == kNotPromoted) continue;
      saved.emplace_back(idx, st.current[idx]);
      st.current[idx] = inst->operand(0);
      inst->erase_from_parent();
    }
  }

  for (BasicBlock* succ : bb->successors()) {
    for (const auto& [idx, phi] : st.placed[succ]) {
      if (phi->incoming_index_for(bb) >= 0) continue;  // edge already filled
      Value* v = st.current[idx];
      if (v == nullptr) v = m->get_undef(phi->type());
      phi->add_incoming(v, bb);
    }
  }

  if (dt.is_reachable(bb)) {
    for (BasicBlock* child : dt.children(bb)) rename_walk(child, dt, st, m);
  }

  // Restore in reverse order (stack discipline).
  for (auto it = saved.rbegin(); it != saved.rend(); ++it) st.current[it->first] = it->second;
}

/// Removes phis that are only used by (possibly cycles of) other dead phis.
void remove_dead_phi_webs(Function& f) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (BasicBlock* bb : f.blocks()) {
      for (Instruction* phi : bb->phis()) {
        bool only_self = true;
        for (const Instruction* user : phi->users()) {
          if (user != phi) {
            only_self = false;
            break;
          }
        }
        if (only_self) {
          // Clear self references before erasing.
          while (phi->has_users()) {
            Instruction* user = phi->users().back();
            for (std::size_t i = 0; i < user->incoming_count(); ++i) {
              if (user->incoming_value(i) == phi) {
                user->set_incoming_value(i, phi->parent()->parent()->parent()->get_undef(
                                                 phi->type()));
              }
            }
          }
          phi->erase_from_parent();
          changed = true;
        }
      }
    }
  }
}

}  // namespace

std::vector<Instruction*> find_promotable_allocas(Function& f) {
  std::vector<Instruction*> out;
  if (f.entry() == nullptr) return out;
  for (Instruction* inst : f.entry()->instructions()) {
    if (inst->opcode() == Opcode::kAlloca && is_promotable(inst)) out.push_back(inst);
  }
  return out;
}

std::size_t promote_allocas(Function& f, const std::vector<Instruction*>& allocas) {
  PromotionState st;
  st.alloca_index.reset(f, kNotPromoted);
  for (Instruction* a : allocas) {
    if (a->parent() == f.entry() && is_promotable(a)) {
      st.alloca_index[a] = st.allocas.size();
      st.allocas.push_back(a);
    }
  }
  if (st.allocas.empty()) return 0;
  // The renaming walk covers the dominator tree (reachable blocks); a stale
  // unreachable predecessor would leave inserted phis with missing incoming
  // edges, so clean the CFG first (entry-block allocas are never affected).
  ir::remove_unreachable_blocks(f);
  st.current.assign(st.allocas.size(), nullptr);
  st.placed.reset(f, {});

  const auto tree = ir::dominators(f);
  const ir::DominatorTree& dt = *tree;
  const auto frontiers = dt.dominance_frontiers();

  // Phi placement at the iterated dominance frontier of each alloca's stores.
  // Per block, the last alloca (its index + 1) that stores there and that
  // has a phi there.
  ir::IdTable<BasicBlock, std::size_t> def_stamp(f, 0);
  ir::IdTable<BasicBlock, std::size_t> phi_stamp(f, 0);
  for (std::size_t idx = 0; idx < st.allocas.size(); ++idx) {
    Instruction* a = st.allocas[idx];
    const std::size_t stamp = idx + 1;
    std::vector<BasicBlock*> worklist;
    for (Instruction* user : a->users()) {
      if (user->opcode() == Opcode::kStore &&
          std::exchange(def_stamp[user->parent()], stamp) != stamp &&
          dt.is_reachable(user->parent())) {
        worklist.push_back(user->parent());
      }
    }
    while (!worklist.empty()) {
      BasicBlock* x = worklist.back();
      worklist.pop_back();
      for (BasicBlock* y : frontiers[x->id()]) {
        if (std::exchange(phi_stamp[y], stamp) == stamp) continue;
        Instruction* phi =
            y->insert_at(0, Instruction::phi(a->allocated_type(), a->name() + ".phi"));
        st.placed[y].emplace_back(idx, phi);
        if (def_stamp[y] != stamp) worklist.push_back(y);
      }
    }
  }

  Module* m = f.parent();
  rename_walk(f.entry(), dt, st, m);

  // Loads/stores in unreachable blocks still reference the allocas; detach.
  for (Instruction* a : st.allocas) {
    const auto users = a->users();
    for (Instruction* user : std::vector<Instruction*>(users.begin(), users.end())) {
      if (user->opcode() == Opcode::kLoad) {
        user->replace_all_uses_with(m->get_undef(user->type()));
      }
      user->erase_from_parent();
    }
    a->erase_from_parent();
  }

  remove_dead_phi_webs(f);
  return st.allocas.size();
}

Value* trace_pointer_base(Value* pointer) {
  while (true) {
    Instruction* inst = ir::as_instruction(pointer);
    if (inst == nullptr) return pointer;
    if (inst->opcode() == Opcode::kGep || inst->opcode() == Opcode::kBitCast) {
      pointer = inst->operand(0);
      continue;
    }
    return pointer;
  }
}

// ---------------------------------------------------------------------------
// Canonical induction variables
// ---------------------------------------------------------------------------

bool find_canonical_iv(const ir::Loop& loop, CanonicalIV& out) {
  BasicBlock* latch = loop.latch();
  if (latch == nullptr) return false;
  Instruction* term = latch->terminator();
  if (term == nullptr || term->opcode() != Opcode::kCondBr) return false;
  const bool succ0_in = loop.contains(term->successor(0));
  const bool succ1_in = loop.contains(term->successor(1));
  if (succ0_in == succ1_in) return false;  // need exactly one in-loop edge
  if ((succ0_in ? term->successor(0) : term->successor(1)) != loop.header()) return false;

  Instruction* cmp = ir::as_instruction(term->operand(0));
  if (cmp == nullptr || cmp->opcode() != Opcode::kICmp) return false;

  // Find an IV phi in the header: phi(init from outside, add(phi, c) from latch).
  for (Instruction* phi : loop.header()->phis()) {
    if (phi->incoming_count() != 2) continue;
    Value* init = nullptr;
    Value* from_latch = nullptr;
    for (std::size_t i = 0; i < 2; ++i) {
      if (loop.contains(phi->incoming_block(i))) {
        from_latch = phi->incoming_value(i);
      } else {
        init = phi->incoming_value(i);
      }
    }
    Instruction* next = ir::as_instruction(from_latch);
    if (init == nullptr || next == nullptr || next->opcode() != Opcode::kAdd) continue;
    if (!loop.contains(next->parent())) continue;
    ConstantInt* step = nullptr;
    if (next->operand(0) == phi) step = ir::as_constant_int(next->operand(1));
    if (next->operand(1) == phi && step == nullptr) step = ir::as_constant_int(next->operand(0));
    if (step == nullptr || step->is_zero()) continue;

    // Does the latch compare read this IV (or its increment)?
    Value* iv_side = nullptr;
    Value* bound = nullptr;
    bool compares_next = false;
    if (cmp->operand(0) == phi || cmp->operand(0) == next) {
      iv_side = cmp->operand(0);
      bound = cmp->operand(1);
    } else if (cmp->operand(1) == phi || cmp->operand(1) == next) {
      iv_side = cmp->operand(1);
      bound = cmp->operand(0);
    } else {
      continue;
    }
    compares_next = iv_side == next;
    if (!is_loop_invariant(loop, bound)) continue;

    out.phi = phi;
    out.next = next;
    out.compare = cmp;
    out.init = init;
    out.bound = bound;
    out.step = step->value();
    out.compares_next = compares_next;
    out.continue_on_true = succ0_in;
    return true;
  }
  return false;
}

std::int64_t compute_trip_count(const CanonicalIV& iv, std::int64_t max_trips) {
  const ConstantInt* init = ir::as_constant_int(iv.init);
  const ConstantInt* bound = ir::as_constant_int(iv.bound);
  if (init == nullptr || bound == nullptr || iv.compare == nullptr) return -1;
  const int bits = iv.phi->type()->bits();
  // The compare may have the IV on either side; recover the predicate as
  // seen from the IV's perspective.
  ICmpPred pred = iv.compare->icmp_pred();
  const bool iv_on_lhs =
      iv.compare->operand(0) == iv.phi || iv.compare->operand(0) == iv.next;
  if (!iv_on_lhs) pred = ir::icmp_swapped(pred);

  std::int64_t i = init->value();
  std::int64_t trips = 0;
  while (true) {
    ++trips;
    if (trips > max_trips) return -1;
    const std::int64_t next = ir::fold_binary_op(Opcode::kAdd, i, iv.step, bits);
    const std::int64_t test = iv.compares_next ? next : i;
    const bool c = ir::fold_icmp_op(pred, test, bound->value(), bits);
    const bool continue_loop = iv.continue_on_true ? c : !c;
    if (!continue_loop) return trips;
    i = next;
  }
}

bool is_loop_invariant(const ir::Loop& loop, const Value* v) {
  const Instruction* inst = ir::as_instruction(v);
  if (inst == nullptr) return true;  // constants, arguments, globals
  return !loop.contains(inst->parent());
}

BasicBlock* unique_outside_predecessor(const ir::Loop& loop) {
  BasicBlock* candidate = nullptr;
  for (BasicBlock* p : loop.header()->unique_predecessors()) {
    if (loop.contains(p)) continue;
    if (candidate != nullptr && candidate != p) return nullptr;
    candidate = p;
  }
  return candidate;
}

bool sweep_loops(Module& m, const std::function<bool(ir::Loop&, const ir::DominatorTree&)>& visit) {
  bool changed = false;
  for (Function* f : m.functions()) {
    const auto dt = ir::dominators(*f);
    const auto li = ir::loop_info(*f);
    for (ir::Loop* loop : li->loops_innermost_first()) changed |= visit(*loop, *dt);
  }
  return changed;
}

bool rewrite_loops_until_stable(Module& m, int max_rounds, LoopOrder order,
                                const std::function<bool(Function&, ir::Loop&)>& rewrite) {
  bool changed = false;
  for (Function* f : m.functions()) {
    for (int round = 0; round < max_rounds; ++round) {
      const auto li = ir::loop_info(*f);
      const std::vector<ir::Loop*> loops =
          order == LoopOrder::kOuterFirst ? li->all_loops() : li->loops_innermost_first();
      bool rewrote = false;
      for (ir::Loop* loop : loops) {
        rewrote = rewrite(*f, *loop);
        if (rewrote) break;  // the analyses are stale now
      }
      changed |= rewrote;
      if (!rewrote) break;
    }
  }
  return changed;
}

}  // namespace autophase::passes
