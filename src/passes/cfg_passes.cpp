// Control-flow shaping and lowering passes of Table 1.
#include <algorithm>
#include <unordered_map>

#include "ir/cfg.hpp"
#include "ir/fold.hpp"
#include "passes/all_passes.hpp"
#include "passes/util.hpp"

namespace autophase::passes {

namespace {

using ir::BasicBlock;
using ir::ConstantInt;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Value;

// ---------------------------------------------------------------------------
// -simplifycfg
// ---------------------------------------------------------------------------

class SimplifyCFGPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) changed |= run_on_function(m, *f);
    return changed;
  }

 private:
  static constexpr std::size_t kSpeculationLimit = 6;

  bool run_on_function(Module& m, Function& f) {
    bool any = false;
    for (int iter = 0; iter < 8; ++iter) {
      bool changed = remove_unreachable_blocks(f) > 0;
      for (BasicBlock* bb : f.blocks()) {
        if (f.index_of(bb) < 0) continue;  // erased by an earlier transform
        changed |= simplify_phis(m, *bb);
        changed |= fold_constant_terminator(*bb);
        changed |= fold_same_target_condbr(*bb);
        if (try_if_conversion(m, *bb)) {
          changed = true;
          continue;
        }
        if (skip_empty_block(f, bb)) {
          changed = true;
          continue;
        }
        if (ir::merge_block_into_predecessor(bb) != nullptr) {
          changed = true;
          continue;  // bb was erased
        }
      }
      any |= changed;
      if (!changed) break;
    }
    return any;
  }

  bool simplify_phis(Module& m, BasicBlock& bb) {
    bool changed = false;
    for (Instruction* phi : bb.phis()) {
      if (!phi->has_users()) {
        phi->erase_from_parent();
        changed = true;
        continue;
      }
      if (Value* v = simplify_instruction(phi)) {
        phi->replace_all_uses_with(v);
        phi->erase_from_parent();
        changed = true;
      }
    }
    (void)m;
    return changed;
  }

  /// condbr/switch with a constant condition becomes an unconditional br.
  bool fold_constant_terminator(BasicBlock& bb) {
    Instruction* term = bb.terminator();
    if (term == nullptr) return false;
    if (term->opcode() == Opcode::kCondBr) {
      ConstantInt* c = ir::as_constant_int(term->operand(0));
      if (c == nullptr) return false;
      BasicBlock* target = term->successor(c->is_zero() ? 1 : 0);
      rewrite_to_br(&bb, target);
      return true;
    }
    if (term->opcode() == Opcode::kSwitch) {
      // All-same-target switch, or constant selector.
      BasicBlock* target = nullptr;
      if (ConstantInt* c = ir::as_constant_int(term->operand(0))) {
        target = term->successor(0);
        for (std::size_t i = 0; i < term->switch_case_count(); ++i) {
          if (ir::as_constant_int(term->operand(1 + i))->value() == c->value()) {
            target = term->successor(1 + i);
            break;
          }
        }
      } else {
        bool all_same = true;
        for (std::size_t i = 0; i < term->successor_count(); ++i) {
          if (term->successor(i) != term->successor(0)) all_same = false;
        }
        if (all_same) target = term->successor(0);
      }
      if (target == nullptr) return false;
      rewrite_to_br(&bb, target);
      return true;
    }
    return false;
  }

  bool fold_same_target_condbr(BasicBlock& bb) {
    Instruction* term = bb.terminator();
    if (term == nullptr || term->opcode() != Opcode::kCondBr) return false;
    if (term->successor(0) != term->successor(1)) return false;
    rewrite_to_br(&bb, term->successor(0));
    return true;
  }

  void rewrite_to_br(BasicBlock* bb, BasicBlock* target) {
    Instruction* term = bb->terminator();
    const std::vector<BasicBlock*> old_succs = bb->successors();
    bb->erase(term);
    bb->push_back(Instruction::br(target));
    for (BasicBlock* s : old_succs) {
      if (s == target || s->has_predecessor(bb)) continue;
      for (Instruction* phi : s->phis()) {
        const int idx = phi->incoming_index_for(bb);
        if (idx >= 0) phi->remove_incoming(static_cast<std::size_t>(idx));
      }
    }
  }

  /// bb == {br target}: redirect all predecessors straight to target.
  bool skip_empty_block(Function& f, BasicBlock* bb) {
    if (bb == f.entry() || bb->size() != 1) return false;
    Instruction* term = bb->terminator();
    if (term == nullptr || term->opcode() != Opcode::kBr) return false;
    BasicBlock* target = term->successor(0);
    if (target == bb) return false;

    const auto preds = bb->unique_predecessors();
    if (preds.empty()) return false;
    // Safety: a pred that already reaches target directly must agree on all
    // phi values along both edges.
    for (Instruction* phi : target->phis()) {
      Value* via_bb = phi->incoming_for_block(bb);
      for (BasicBlock* p : preds) {
        const int existing = phi->incoming_index_for(p);
        if (existing >= 0 && phi->incoming_value(static_cast<std::size_t>(existing)) != via_bb) {
          return false;
        }
      }
    }
    for (BasicBlock* p : preds) {
      p->terminator()->replace_successor(bb, target);
    }
    for (Instruction* phi : target->phis()) {
      const int via_idx = phi->incoming_index_for(bb);
      if (via_idx < 0) continue;
      Value* v = phi->incoming_value(static_cast<std::size_t>(via_idx));
      phi->remove_incoming(static_cast<std::size_t>(via_idx));
      for (BasicBlock* p : preds) {
        if (phi->incoming_index_for(p) < 0) phi->add_incoming(v, p);
      }
    }
    // bb is now unreachable; the next sweep removes it.
    return true;
  }

  static bool speculatable_block(BasicBlock* bb, BasicBlock* required_succ,
                                 BasicBlock* required_pred) {
    const auto preds = bb->unique_predecessors();
    if (preds.size() != 1 || preds[0] != required_pred) return false;
    Instruction* term = bb->terminator();
    if (term == nullptr || term->opcode() != Opcode::kBr || term->successor(0) != required_succ) {
      return false;
    }
    if (bb->size() > kSpeculationLimit + 1) return false;
    for (Instruction* inst : bb->instructions()) {
      if (inst == term) continue;
      if (!inst->is_pure()) return false;  // phis, memory ops, calls excluded
    }
    return true;
  }

  /// Diamond / triangle if-conversion into select instructions. This is the
  /// single most cycle-relevant CFG rewrite for HLS: it removes FSM states.
  bool try_if_conversion(Module& m, BasicBlock& bb) {
    Instruction* term = bb.terminator();
    if (term == nullptr || term->opcode() != Opcode::kCondBr) return false;
    BasicBlock* t = term->successor(0);
    BasicBlock* f = term->successor(1);
    if (t == f || t == &bb || f == &bb) return false;
    Value* cond = term->operand(0);

    // Diamond: bb -> {t, f} -> join.
    if (speculatable_block(t, t->successors().empty() ? nullptr : t->successors()[0], &bb)) {
      BasicBlock* join = t->successors()[0];
      if (join != &bb && speculatable_block(f, join, &bb)) {
        if (join->unique_predecessors().size() != 2) return false;
        hoist_into(&bb, t);
        hoist_into(&bb, f);
        for (Instruction* phi : join->phis()) {
          Value* vt = phi->incoming_for_block(t);
          Value* vf = phi->incoming_for_block(f);
          Instruction* sel = bb.insert_before_terminator(
              Instruction::select(cond, vt, vf, phi->name()));
          phi->replace_all_uses_with(sel);
          phi->erase_from_parent();
        }
        rewrite_to_br(&bb, join);
        return true;
      }
    }
    // Triangle: bb -> {t, join}, t -> join.
    for (int side = 0; side < 2; ++side) {
      BasicBlock* spec = side == 0 ? t : f;
      BasicBlock* join = side == 0 ? f : t;
      if (!speculatable_block(spec, join, &bb)) continue;
      if (join->unique_predecessors().size() != 2 || !join->has_predecessor(&bb)) continue;
      hoist_into(&bb, spec);
      for (Instruction* phi : join->phis()) {
        Value* v_spec = phi->incoming_for_block(spec);
        Value* v_direct = phi->incoming_for_block(&bb);
        if (v_spec == nullptr || v_direct == nullptr) continue;
        Value* vt = side == 0 ? v_spec : v_direct;
        Value* vf = side == 0 ? v_direct : v_spec;
        Instruction* sel =
            bb.insert_before_terminator(Instruction::select(cond, vt, vf, phi->name()));
        const int spec_idx = phi->incoming_index_for(spec);
        phi->remove_incoming(static_cast<std::size_t>(spec_idx));
        const int direct_idx = phi->incoming_index_for(&bb);
        phi->set_incoming_value(static_cast<std::size_t>(direct_idx), sel);
      }
      rewrite_to_br(&bb, join);
      return true;
    }
    (void)m;
    return false;
  }

  /// Moves all non-terminator instructions of `src` before dst's terminator.
  void hoist_into(BasicBlock* dst, BasicBlock* src) {
    while (src->size() > 1) {
      auto owned = src->take(src->front());
      dst->insert_before(dst->terminator(), std::move(owned));
    }
  }
};

// ---------------------------------------------------------------------------
// -break-crit-edges
// ---------------------------------------------------------------------------

class BreakCritEdgesPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      std::vector<std::pair<BasicBlock*, BasicBlock*>> edges;
      for (BasicBlock* bb : f->blocks()) {
        for (BasicBlock* succ : bb->successors()) {
          const auto edge = std::make_pair(bb, succ);
          if (ir::is_critical_edge(bb, succ) &&
              std::find(edges.begin(), edges.end(), edge) == edges.end()) {
            edges.push_back(edge);
          }
        }
      }
      int split_id = 0;
      for (auto& [from, to] : edges) {
        if (!ir::is_critical_edge(from, to)) continue;  // fixed by a prior split
        ir::split_edge(from, to, "crit" + std::to_string(split_id++));
        changed = true;
      }
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -lowerswitch
// ---------------------------------------------------------------------------

class LowerSwitchPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      for (BasicBlock* bb : f->blocks()) {
        Instruction* term = bb->terminator();
        if (term != nullptr && term->opcode() == Opcode::kSwitch) {
          lower(m, *f, bb, term);
          changed = true;
        }
      }
    }
    return changed;
  }

 private:
  void lower(Module& m, Function& f, BasicBlock* bb, Instruction* sw) {
    Value* selector = sw->operand(0);
    BasicBlock* default_dest = sw->successor(0);
    std::vector<std::pair<ConstantInt*, BasicBlock*>> cases;
    for (std::size_t i = 0; i < sw->switch_case_count(); ++i) {
      cases.emplace_back(ir::as_constant_int(sw->operand(1 + i)), sw->successor(1 + i));
    }
    // Record phi values per successor before rewiring.
    std::unordered_map<Instruction*, Value*> phi_values;
    std::vector<BasicBlock*> succs;
    for (std::size_t i = 0; i < sw->successor_count(); ++i) succs.push_back(sw->successor(i));
    for (BasicBlock* s : succs) {
      for (Instruction* phi : s->phis()) {
        if (!phi_values.contains(phi)) phi_values[phi] = phi->incoming_for_block(bb);
      }
    }

    bb->erase(sw);
    if (cases.empty()) {
      bb->push_back(Instruction::br(default_dest));
    } else {
      BasicBlock* cur = bb;
      for (std::size_t i = 0; i < cases.size(); ++i) {
        Instruction* cmp = cur->push_back(
            Instruction::icmp(ir::ICmpPred::kEq, selector, cases[i].first, "sw.cmp"));
        BasicBlock* next = i + 1 < cases.size()
                               ? f.create_block_after(cur, "sw.case" + std::to_string(i + 1))
                               : default_dest;
        cur->push_back(Instruction::cond_br(cmp, cases[i].second, next));
        cur = next;
      }
    }

    // Re-seed phis: each successor now has some set of chain blocks (and
    // possibly bb) as predecessors; the value along every new edge is the
    // value that used to flow from bb.
    for (auto& [phi, value] : phi_values) {
      BasicBlock* s = phi->parent();
      const int old_idx = phi->incoming_index_for(bb);
      if (old_idx >= 0 && !s->has_predecessor(bb)) {
        phi->remove_incoming(static_cast<std::size_t>(old_idx));
      }
      for (BasicBlock* p : s->unique_predecessors()) {
        if (phi->incoming_index_for(p) < 0) phi->add_incoming(value, p);
      }
    }
    (void)m;
  }
};

// ---------------------------------------------------------------------------
// -strip / -strip-nondebug: drop local value, argument, and block names.
// Function and global symbol names survive (they are linkage-visible). This
// IR carries no debug info, so the two passes coincide.
// ---------------------------------------------------------------------------

class StripPass {
 public:
  bool run(Module& m) {
    bool changed = false;
    for (Function* f : m.functions()) {
      for (std::size_t i = 0; i < f->arg_count(); ++i) {
        if (!f->arg(i)->name().empty()) {
          f->arg(i)->set_name("");
          changed = true;
        }
      }
      for (BasicBlock* bb : f->blocks()) {
        if (!bb->name().empty()) {
          bb->set_name("");
          changed = true;
        }
        for (Instruction* inst : bb->instructions()) {
          if (!inst->name().empty()) {
            inst->set_name("");
            changed = true;
          }
        }
      }
    }
    return changed;
  }
};

}  // namespace

bool run_simplifycfg(Module& m) { return SimplifyCFGPass{}.run(m); }
bool run_break_crit_edges(Module& m) { return BreakCritEdgesPass{}.run(m); }
bool run_lowerswitch(Module& m) { return LowerSwitchPass{}.run(m); }
bool run_strip(Module& m) { return StripPass{}.run(m); }

// -lowerinvoke / -loweratomic / -lower-expect: this IR has no invoke, atomic
// or llvm.expect instructions (hardware circuits have no exceptions or
// shared-memory atomics), so these are faithful no-ops, present to preserve
// Table 1's action space.
bool run_noop(Module&) { return false; }

}  // namespace autophase::passes
