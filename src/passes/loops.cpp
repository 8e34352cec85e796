// Loop passes of Table 1.
//
// Design note (DESIGN.md §5): loop transforms require canonical form
// (preheader / single latch / dedicated exits from -loop-simplify; rotated
// do-while form from -loop-rotate for the unroller) and do NOT
// auto-canonicalise. This makes pass order matter exactly the way the paper
// studies: -loop-rotate before -loop-unroll is the famous pairing its random
// forests discover (Fig. 6).
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ir/cfg.hpp"
#include "ir/clone.hpp"
#include "ir/fold.hpp"
#include "passes/all_passes.hpp"
#include "passes/util.hpp"

namespace autophase::passes {

namespace {

using ir::BasicBlock;
using ir::CloneContext;
using ir::ConstantInt;
using ir::DominatorTree;
using ir::Function;
using ir::Instruction;
using ir::Loop;
using ir::Module;
using ir::Opcode;
using ir::Value;

/// Redirects every `preds` edge aimed at `target` through a fresh block that
/// just branches to `target`, merging phi values with a new phi when several
/// predecessors funnel in. The canonicalisation step shared by preheader /
/// single-latch / dedicated-exit construction.
BasicBlock* create_forwarding_block(Function& f, BasicBlock* target,
                                    const std::vector<BasicBlock*>& preds,
                                    const std::string& name) {
  BasicBlock* fwd = f.create_block(name);
  f.move_block(fwd, static_cast<std::size_t>(f.index_of(target)));
  for (BasicBlock* p : preds) {
    p->terminator()->replace_successor(target, fwd);
  }
  for (Instruction* phi : target->phis()) {
    Value* merged = nullptr;
    if (preds.size() == 1) {
      merged = phi->incoming_for_block(preds[0]);
    } else {
      Instruction* new_phi = fwd->insert_at(0, Instruction::phi(phi->type(), phi->name()));
      for (BasicBlock* p : preds) new_phi->add_incoming(phi->incoming_for_block(p), p);
      merged = new_phi;
    }
    for (BasicBlock* p : preds) {
      const int idx = phi->incoming_index_for(p);
      if (idx >= 0) phi->remove_incoming(static_cast<std::size_t>(idx));
    }
    phi->add_incoming(merged, fwd);
  }
  fwd->push_back(Instruction::br(target));
  return fwd;
}

// ---------------------------------------------------------------------------
// -loop-simplify
// ---------------------------------------------------------------------------

class LoopSimplifyPass {
 public:
  // Each structural fix invalidates LoopInfo; recompute and continue until
  // every loop is canonical. Outer loops are fixed first.
  bool run(Module& m) {
    auto rewrite = [this](Function& f, Loop& loop) { return canonicalise(f, loop); };
    return rewrite_loops_until_stable(m, 16, LoopOrder::kOuterFirst, rewrite);
  }

 private:
  bool canonicalise(Function& f, Loop& loop) {
    BasicBlock* header = loop.header();
    // 1. Preheader.
    if (loop.preheader() == nullptr) {
      std::vector<BasicBlock*> outside;
      for (BasicBlock* p : header->unique_predecessors()) {
        if (!loop.contains(p)) outside.push_back(p);
      }
      if (outside.empty()) return false;  // unreachable rotten loop; leave it
      create_forwarding_block(f, header, outside, header->name() + ".ph");
      return true;
    }
    // 2. Single latch.
    if (loop.latch() == nullptr) {
      create_forwarding_block(f, header, loop.latches(), header->name() + ".latch");
      return true;
    }
    // 3. Dedicated exits.
    for (BasicBlock* exit : loop.exit_blocks()) {
      bool dedicated = true;
      std::vector<BasicBlock*> in_loop_preds;
      for (BasicBlock* p : exit->unique_predecessors()) {
        if (loop.contains(p)) {
          in_loop_preds.push_back(p);
        } else {
          dedicated = false;
        }
      }
      if (!dedicated && !in_loop_preds.empty()) {
        create_forwarding_block(f, exit, in_loop_preds, exit->name() + ".exit");
        return true;
      }
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// -lcssa
// ---------------------------------------------------------------------------

class LCSSAPass {
 public:
  bool run(Module& m) {
    auto visit = [this](Loop& loop, const DominatorTree&) { return run_on_loop(loop); };
    return sweep_loops(m, visit);
  }

 private:
  bool run_on_loop(Loop& loop) {
    const auto exits = loop.exit_blocks();
    if (exits.size() != 1) return false;  // multi-exit LCSSA unsupported
    BasicBlock* exit = exits.front();
    for (BasicBlock* p : exit->unique_predecessors()) {
      if (!loop.contains(p)) return false;  // needs dedicated exits
    }

    bool changed = false;
    for (BasicBlock* bb : loop.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        if (inst->type()->is_void()) continue;
        changed |= rewrite_external_uses(loop, exit, inst);
      }
    }
    return changed;
  }

  bool rewrite_external_uses(Loop& loop, BasicBlock* exit, Instruction* inst) {
    // Collect uses outside the loop (phi uses count at their incoming edge).
    std::vector<Instruction*> external;
    for (Instruction* user : inst->users()) {
      if (user->is_phi()) {
        bool outside = false;
        for (std::size_t i = 0; i < user->incoming_count(); ++i) {
          if (user->incoming_value(i) == inst && !loop.contains(user->incoming_block(i))) {
            outside = true;
          }
        }
        if (outside) external.push_back(user);
      } else if (!loop.contains(user->parent())) {
        external.push_back(user);
      }
    }
    if (external.empty()) return false;

    Instruction* lcssa_phi =
        exit->insert_at(0, Instruction::phi(inst->type(), inst->name() + ".lcssa"));
    for (BasicBlock* p : exit->unique_predecessors()) lcssa_phi->add_incoming(inst, p);

    for (Instruction* user : external) {
      if (user == lcssa_phi) continue;
      if (user->is_phi()) {
        for (std::size_t i = 0; i < user->incoming_count(); ++i) {
          if (user->incoming_value(i) == inst && !loop.contains(user->incoming_block(i))) {
            user->set_incoming_value(i, lcssa_phi);
          }
        }
      } else {
        user->replace_uses_of(inst, lcssa_phi);
      }
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// -licm
// ---------------------------------------------------------------------------

class LICMPass {
 public:
  bool run(Module& m) {
    auto visit = [this](Loop& loop, const DominatorTree& dt) { return run_on_loop(loop, dt); };
    return sweep_loops(m, visit);
  }

 private:
  bool run_on_loop(Loop& loop, const DominatorTree& dt) {
    BasicBlock* preheader = loop.preheader();
    if (preheader == nullptr) return false;  // requires -loop-simplify first

    const bool loop_has_writes = [&] {
      for (BasicBlock* bb : loop.blocks()) {
        for (Instruction* inst : bb->instructions()) {
          if (inst->may_write_memory()) return true;
        }
      }
      return false;
    }();

    bool changed = false;
    bool progress = true;
    while (progress) {
      progress = false;
      for (BasicBlock* bb : loop.blocks()) {
        for (Instruction* inst : bb->instructions()) {
          if (!can_hoist(loop, dt, *inst, loop_has_writes)) continue;
          auto owned = inst->parent()->take(inst);
          preheader->insert_before(preheader->terminator(), std::move(owned));
          progress = true;
          changed = true;
        }
      }
    }
    return changed;
  }

  bool operands_invariant(const Loop& loop, const Instruction& inst) {
    for (const Value* op : inst.operands()) {
      if (!is_loop_invariant(loop, op)) return false;
    }
    return true;
  }

  bool guaranteed_to_execute(const Loop& loop, const DominatorTree& dt,
                             const Instruction& inst) {
    if (!dt.is_reachable(inst.parent())) return false;
    for (BasicBlock* exiting : loop.exiting_blocks()) {
      if (!dt.is_reachable(exiting) || !dt.dominates(inst.parent(), exiting)) return false;
    }
    return true;
  }

  bool can_hoist(const Loop& loop, const DominatorTree& dt, Instruction& inst,
                 bool loop_has_writes) {
    if (!operands_invariant(loop, inst)) return false;
    // Pure scalar ops never trap under this IR's semantics: freely
    // speculatable out of the loop.
    if (inst.is_pure()) return true;
    // Invariant loads: need no writers in the loop, plus guaranteed
    // execution (a speculative load could touch unmapped memory).
    if (inst.opcode() == Opcode::kLoad) {
      return !loop_has_writes && guaranteed_to_execute(loop, dt, inst);
    }
    // Calls to readnone functions with invariant arguments (the paper's
    // Fig. 1 mag() hoist, enabled by a prior -functionattrs). Freely
    // speculatable, as in LLVM's readnone+willreturn treatment: these calls
    // cannot fault, write, or hang (every function in this closed world
    // terminates — a circuit must).
    if (inst.opcode() == Opcode::kCall) {
      return inst.callee() != nullptr && inst.callee()->attrs().readnone;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// -loop-rotate
// ---------------------------------------------------------------------------

class LoopRotatePass {
 public:
  // One rotation per LoopInfo computation (the transform rewrites the loop
  // structure wholesale).
  bool run(Module& m) {
    auto rewrite = [this](Function& f, Loop& loop) { return rotate(f, loop); };
    return rewrite_loops_until_stable(m, 16, LoopOrder::kInnermostFirst, rewrite);
  }

 private:
  bool rotate(Function& f, Loop& loop) {
    BasicBlock* header = loop.header();
    BasicBlock* preheader = loop.preheader();
    BasicBlock* latch = loop.latch();
    if (preheader == nullptr || latch == nullptr || latch == header) return false;

    Instruction* term = header->terminator();
    if (term == nullptr || term->opcode() != Opcode::kCondBr) return false;
    const bool s0_in = loop.contains(term->successor(0));
    const bool s1_in = loop.contains(term->successor(1));
    if (s0_in == s1_in) return false;
    BasicBlock* body = s0_in ? term->successor(0) : term->successor(1);
    BasicBlock* exit = s0_in ? term->successor(1) : term->successor(0);
    if (body == header || body->unique_predecessors().size() != 1) return false;
    if (!body->phis().empty()) return false;
    // Single-exit loop whose exit is dedicated to the header's exit edge:
    // these two properties make the exit block dominate every out-of-loop
    // use of a loop value, which the merge-phi rewiring below relies on.
    const auto all_exits = loop.exit_blocks();
    if (all_exits.size() != 1 || all_exits[0] != exit) return false;
    const auto exit_preds = exit->unique_predecessors();
    if (exit_preds.size() != 1 || exit_preds[0] != header) return false;
    // Latch must branch unconditionally to the header.
    Instruction* latch_term = latch->terminator();
    if (latch_term == nullptr || latch_term->opcode() != Opcode::kBr) return false;

    // Header restrictions: phis + pure instructions + the condbr.
    std::vector<Instruction*> header_phis = header->phis();
    std::vector<Instruction*> header_insts;
    for (Instruction* inst : header->instructions()) {
      if (inst->is_phi() || inst == term) continue;
      if (!inst->is_pure()) return false;
      header_insts.push_back(inst);
    }
    // Size guard: the header computation is cloned twice.
    if (header_insts.size() > 16) return false;

    // Per-phi init/next values. The "next" value must not be defined in the
    // header itself (it would be deleted with it); canonical loops compute
    // the increment in the body.
    std::unordered_map<Instruction*, Value*> phi_init;
    std::unordered_map<Instruction*, Value*> phi_next;
    for (Instruction* phi : header_phis) {
      Value* init = phi->incoming_for_block(preheader);
      Value* next = phi->incoming_for_block(latch);
      if (init == nullptr || next == nullptr) return false;
      if (Instruction* def = ir::as_instruction(next);
          def != nullptr && def->parent() == header) {
        return false;
      }
      phi_init[phi] = init;
      phi_next[phi] = next;
    }

    Module* m = f.parent();

    // Value maps for the two clones of the header computation. In the
    // preheader clone a header phi reads its init value; in the latch clone
    // it reads the next-iteration value.
    std::unordered_map<Value*, Value*> map_p;
    std::unordered_map<Value*, Value*> map_l;
    for (Instruction* phi : header_phis) {
      map_p[phi] = phi_init[phi];
      map_l[phi] = phi_next[phi];
    }

    auto clone_into = [&](BasicBlock* dest, std::unordered_map<Value*, Value*>& map) {
      for (Instruction* inst : header_insts) {
        Instruction* copy = dest->insert_before(dest->terminator(), inst->clone());
        for (std::size_t i = 0; i < copy->operand_count(); ++i) {
          const auto it = map.find(copy->operand(i));
          if (it != map.end()) copy->set_operand(i, it->second);
        }
        map[inst] = copy;
      }
    };
    clone_into(preheader, map_p);
    clone_into(latch, map_l);

    auto resolve = [&](std::unordered_map<Value*, Value*>& map, Value* v) -> Value* {
      const auto it = map.find(v);
      return it == map.end() ? v : it->second;
    };

    // Retarget the preheader and latch through cloned guards.
    Value* cond = term->operand(0);
    {
      Instruction* ph_term = preheader->terminator();
      Value* cond_p = resolve(map_p, cond);
      preheader->erase(ph_term);
      preheader->push_back(s0_in ? Instruction::cond_br(cond_p, body, exit)
                                 : Instruction::cond_br(cond_p, exit, body));
    }
    {
      Value* cond_l = resolve(map_l, cond);
      latch->erase(latch_term);
      latch->push_back(s0_in ? Instruction::cond_br(cond_l, body, exit)
                             : Instruction::cond_br(cond_l, exit, body));
    }

    // Move the header phis into the body (its preds are now exactly
    // {preheader, latch}, matching the phis' incoming blocks).
    for (auto it = header_phis.rbegin(); it != header_phis.rend(); ++it) {
      auto owned = header->take(*it);
      body->insert_at(0, std::move(owned));
    }

    // Exit phis whose incoming edge was the header: that one edge becomes
    // two (preheader guard + latch test). Must run before the general use
    // rewiring so no H-slots remain in the exit's phis.
    for (Instruction* phi : exit->phis()) {
      const int idx = phi->incoming_index_for(header);
      if (idx < 0) continue;
      Value* w = phi->incoming_value(static_cast<std::size_t>(idx));
      phi->remove_incoming(static_cast<std::size_t>(idx));
      phi->add_incoming(resolve(map_p, w), preheader);
      phi->add_incoming(resolve(map_l, w), latch);
    }

    // Merge-phi factories. A use of a header value v...
    //  * inside the loop sees "this iteration's" v: phi in the new header
    //    (body) merging the preheader clone and the latch clone;
    //  * outside the loop sees the value on loop exit: phi in the exit block
    //    merging the same two sources (the guard-fail and the latch-exit
    //    paths).
    // For the moved header phis the in-loop value is the phi itself; the
    // exit value merges (init, next).
    std::unordered_map<Instruction*, Instruction*> body_phis;
    std::unordered_map<Instruction*, Instruction*> exit_phis;
    auto body_value_for = [&](Instruction* v) -> Value* {
      if (const auto it = phi_init.find(v); it != phi_init.end()) return v;  // moved phi
      const auto it = body_phis.find(v);
      if (it != body_phis.end()) return it->second;
      Instruction* p = body->insert_at(0, Instruction::phi(v->type(), v->name()));
      p->add_incoming(resolve(map_p, v), preheader);
      p->add_incoming(resolve(map_l, v), latch);
      body_phis[v] = p;
      return p;
    };
    auto exit_value_for = [&](Instruction* v) -> Value* {
      const auto it = exit_phis.find(v);
      if (it != exit_phis.end()) return it->second;
      Instruction* p = exit->insert_at(0, Instruction::phi(v->type(), v->name()));
      if (const auto pit = phi_init.find(v); pit != phi_init.end()) {
        p->add_incoming(pit->second, preheader);
        p->add_incoming(phi_next.at(v), latch);
      } else {
        p->add_incoming(resolve(map_p, v), preheader);
        p->add_incoming(resolve(map_l, v), latch);
      }
      exit_phis[v] = p;
      return p;
    };

    // Rewire every remaining use of header values. A phi user's use site is
    // its incoming edge, handled per slot.
    std::vector<Instruction*> header_values = header_insts;
    for (Instruction* phi : header_phis) header_values.push_back(phi);
    for (Instruction* v : header_values) {
      const auto users = v->users();
      for (Instruction* user :
           std::vector<Instruction*>(users.begin(), users.end())) {
        if (user->parent() == header) continue;       // dies with the header
        if (user->parent() == nullptr) continue;
        if (exit_phis.contains(v) && user == exit_phis.at(v)) continue;
        if (body_phis.contains(v) && user == body_phis.at(v)) continue;
        if (user->is_phi()) {
          for (std::size_t i = 0; i < user->incoming_count(); ++i) {
            if (user->incoming_value(i) != v) continue;
            BasicBlock* via = user->incoming_block(i);
            if (via == header) continue;  // already handled exit-phi slots
            const bool in_loop = loop.contains(via) || via == body;
            Value* replacement = in_loop ? body_value_for(v) : exit_value_for(v);
            if (replacement != v) user->set_incoming_value(i, replacement);
          }
        } else {
          const bool in_loop = loop.contains(user->parent()) || user->parent() == body;
          Value* replacement = in_loop ? body_value_for(v) : exit_value_for(v);
          if (replacement != v) user->replace_uses_of(v, replacement);
        }
      }
    }

    // The old header is now bypassed: every external use has been rerouted
    // to a merge phi above, so remaining users can only be other header
    // instructions (which die with the block). Safety valve: if a use was
    // missed, detach it rather than leave a dangling pointer (the
    // property-test suite asserts this path never fires).
    for (Instruction* inst : header->instructions()) {
      const auto users = inst->users();
      for (Instruction* user :
           std::vector<Instruction*>(users.begin(), users.end())) {
        if (user->parent() != header) {
          user->replace_uses_of(inst, m->get_undef(inst->type()));
        }
      }
    }
    f.erase_block(header);
    return true;
  }
};

// ---------------------------------------------------------------------------
// -loop-unroll
// ---------------------------------------------------------------------------

class LoopUnrollPass {
 public:
  static constexpr std::int64_t kFullUnrollMaxTrips = 16;
  static constexpr std::size_t kMaxUnrolledInsts = 512;

  bool run(Module& m) {
    auto rewrite = [this](Function& f, Loop& loop) { return unroll(f, loop); };
    return rewrite_loops_until_stable(m, 8, LoopOrder::kInnermostFirst, rewrite);
  }

 private:
  std::size_t loop_inst_count(const Loop& loop) {
    std::size_t n = 0;
    for (BasicBlock* bb : loop.blocks()) n += bb->size();
    return n;
  }

  bool unroll(Function& f, Loop& loop) {
    // Rotated-loop guards are acceptable entry predecessors: the unroller
    // never inserts code there, it only needs a well-defined entry edge.
    BasicBlock* entry_pred = unique_outside_predecessor(loop);
    BasicBlock* latch = loop.latch();
    if (entry_pred == nullptr || latch == nullptr) return false;
    // Rotated form: the latch is the unique exiting block.
    const auto exiting = loop.exiting_blocks();
    if (exiting.size() != 1 || exiting[0] != latch) return false;
    CanonicalIV iv;
    if (!find_canonical_iv(loop, iv)) return false;
    const std::int64_t trips = compute_trip_count(iv);
    if (trips <= 0) return false;

    const auto exits = loop.exit_blocks();
    if (exits.size() != 1) return false;
    BasicBlock* exit = exits.front();

    const std::size_t body_size = loop_inst_count(loop);
    std::int64_t copies;  // total body executions materialised side by side
    bool full;
    if (trips <= kFullUnrollMaxTrips &&
        body_size * static_cast<std::size_t>(trips) <= kMaxUnrolledInsts) {
      copies = trips;
      full = true;
    } else {
      std::int64_t factor = 0;
      for (const std::int64_t cand : {8, 4, 2}) {
        if (trips % cand == 0 && body_size * static_cast<std::size_t>(cand) <=
                                     kMaxUnrolledInsts) {
          factor = cand;
          break;
        }
      }
      if (factor == 0) return false;
      copies = factor;
      full = false;
    }
    if (copies == 1 && !full) return false;

    BasicBlock* header = loop.header();
    const std::vector<BasicBlock*> orig_blocks = loop.blocks();
    const std::vector<Instruction*> header_phis = header->phis();

    // Latch incoming value per header phi (the "next iteration" value).
    std::unordered_map<Instruction*, Value*> next_of;
    for (Instruction* phi : header_phis) {
      Value* v = phi->incoming_for_block(latch);
      if (v == nullptr) return false;
      next_of[phi] = v;
    }

    // --- Clone copies 1..copies-1 ---
    std::vector<CloneContext> ctxs;
    ctxs.reserve(static_cast<std::size_t>(copies - 1));
    for (std::int64_t k = 1; k < copies; ++k) {
      CloneContext ctx;
      ctxs.push_back(std::move(ctx));
      CloneContext& c = ctxs.back();
      // Seed values for header phis: iteration k's phi value is iteration
      // k-1's "next".
      std::unordered_map<Instruction*, Value*> seeds;
      for (Instruction* phi : header_phis) {
        Value* prev_next = next_of[phi];
        Value* seed =
            k == 1 ? prev_next : ctxs[static_cast<std::size_t>(k - 2)].map_value(prev_next);
        seeds[phi] = seed;
      }
      clone_blocks(f, orig_blocks, c, ".u" + std::to_string(k));
      // Replace the cloned header phis with their seeds.
      for (Instruction* phi : header_phis) {
        Instruction* phi_clone = ir::as_instruction(c.values.at(phi));
        Value* seed = seeds.at(phi);
        phi_clone->replace_all_uses_with(seed);
        phi_clone->erase_from_parent();
        c.values[phi] = seed;
      }
    }

    auto resolve_k = [&](std::int64_t k, Value* v) -> Value* {
      // Value of `v` as seen by iteration copy k (0 = original).
      if (k == 0) return v;
      return ctxs[static_cast<std::size_t>(k - 1)].map_value(v);
    };
    const std::int64_t last = copies - 1;

    auto cloned_header = [&](std::int64_t k) {
      return ctxs[static_cast<std::size_t>(k - 1)].blocks.at(header);
    };
    auto cloned_latch = [&](std::int64_t k) -> BasicBlock* {
      return k == 0 ? latch : ctxs[static_cast<std::size_t>(k - 1)].blocks.at(latch);
    };

    // --- Stitch ---
    // Latches of copies 0..last-1 fall through to the next copy's header.
    for (std::int64_t k = 0; k < last; ++k) {
      BasicBlock* lk = cloned_latch(k);
      Instruction* lterm = lk->terminator();
      BasicBlock* next_header = cloned_header(k + 1);
      lk->erase(lterm);
      lk->push_back(Instruction::br(next_header));
    }
    BasicBlock* last_latch = cloned_latch(last);
    if (full) {
      // The final latch exits unconditionally.
      Instruction* lterm = last_latch->terminator();
      last_latch->erase(lterm);
      last_latch->push_back(Instruction::br(exit));
    } else {
      // Partial: the final latch keeps its exit test but loops back to the
      // original header.
      Instruction* lterm = last_latch->terminator();
      for (std::size_t i = 0; i < lterm->successor_count(); ++i) {
        if (lterm->successor(i) != exit) lterm->set_successor(i, header);
      }
    }

    // Exit phis: the exit edge now comes from the last copy's latch. (Must
    // run before the original header phis are folded away: the incoming
    // values may be those phis, which resolve through the last context.)
    for (Instruction* phi : exit->phis()) {
      const int idx = phi->incoming_index_for(latch);
      if (idx < 0) continue;
      Value* w = phi->incoming_value(static_cast<std::size_t>(idx));
      phi->replace_incoming_block(latch, last_latch);
      phi->set_incoming_value(static_cast<std::size_t>(idx), resolve_k(last, w));
    }

    // Any remaining external users of original loop values observe the final
    // iteration's version.
    std::unordered_set<const BasicBlock*> all_loop_blocks(orig_blocks.begin(),
                                                          orig_blocks.end());
    for (const auto& ctx : ctxs) {
      for (const auto& [orig, copy] : ctx.blocks) {
        (void)orig;
        all_loop_blocks.insert(copy);
      }
    }
    for (BasicBlock* bb : orig_blocks) {
      for (Instruction* inst : bb->instructions()) {
        if (inst->type()->is_void() || !inst->has_users()) continue;
        const auto users = inst->users();
        for (Instruction* user :
             std::vector<Instruction*>(users.begin(), users.end())) {
          if (user->parent() == nullptr || all_loop_blocks.contains(user->parent())) continue;
          if (user->is_phi() && user->parent() == exit) continue;  // handled above
          user->replace_uses_of(inst, resolve_k(last, inst));
        }
      }
    }

    // Original header phis (after all resolve_k-based fixups).
    if (full) {
      // The latch edge is gone; the phi is just its init value.
      for (Instruction* phi : header_phis) {
        const int idx = phi->incoming_index_for(latch);
        if (idx >= 0) phi->remove_incoming(static_cast<std::size_t>(idx));
        Value* init = phi->incoming_count() == 1 ? phi->incoming_value(0) : nullptr;
        if (init != nullptr) {
          phi->replace_all_uses_with(init);
          phi->erase_from_parent();
        }
      }
    } else {
      // The back edge now comes from the last copy's latch with the last
      // copy's "next" value.
      for (Instruction* phi : header_phis) {
        const int idx = phi->incoming_index_for(latch);
        phi->replace_incoming_block(latch, last_latch);
        phi->set_incoming_value(static_cast<std::size_t>(idx),
                                resolve_k(last, next_of[phi]));
      }
    }

    remove_dead_instructions(f);
    return true;
  }
};

// ---------------------------------------------------------------------------
// -loop-deletion
// ---------------------------------------------------------------------------

class LoopDeletionPass {
 public:
  bool run(Module& m) {
    auto rewrite = [this](Function& f, Loop& loop) { return try_delete(f, loop); };
    return rewrite_loops_until_stable(m, 8, LoopOrder::kInnermostFirst, rewrite);
  }

 private:
  bool try_delete(Function& f, Loop& loop) {
    BasicBlock* preheader = unique_outside_predecessor(loop);
    if (preheader == nullptr) return false;
    const auto exits = loop.exit_blocks();
    if (exits.size() != 1) return false;
    BasicBlock* exit = exits.front();

    // Provable termination: canonical IV with computable trip count.
    CanonicalIV iv;
    if (!find_canonical_iv(loop, iv)) return false;
    if (compute_trip_count(iv) < 0) return false;

    // No side effects inside.
    for (BasicBlock* bb : loop.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        if (inst->may_write_memory()) return false;
        if (inst->opcode() == Opcode::kCall) return false;  // could be slow/effectful
      }
    }
    // No loop value may be observed outside (constants propagated into exit
    // phis by -indvars are fine; live SSA values defined in the loop are
    // not).
    for (BasicBlock* bb : loop.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        for (const Instruction* user : inst->users()) {
          if (!loop.contains(user->parent())) return false;
        }
      }
    }
    // Exit phis must carry ONE well-defined value along the deleted path:
    // all loop-side incoming slots must agree, and if the entry predecessor
    // already reaches the exit directly (rotated-loop guard), its value must
    // agree too (after deletion one edge represents both paths).
    std::vector<std::pair<Instruction*, Value*>> exit_values;
    for (Instruction* phi : exit->phis()) {
      Value* v_loop = nullptr;
      for (std::size_t i = 0; i < phi->incoming_count(); ++i) {
        if (!loop.contains(phi->incoming_block(i))) continue;
        Value* v = phi->incoming_value(i);
        if (v_loop != nullptr && v_loop != v) return false;
        v_loop = v;
      }
      if (v_loop == nullptr) continue;  // no loop edges into this phi
      const int pre_idx = phi->incoming_index_for(preheader);
      if (pre_idx >= 0 &&
          phi->incoming_value(static_cast<std::size_t>(pre_idx)) != v_loop) {
        return false;  // direct guard path needs a different value
      }
      exit_values.emplace_back(phi, v_loop);
    }

    preheader->terminator()->replace_successor(loop.header(), exit);
    // The loop blocks become unreachable; their phi slots vanish with them.
    // Each exit phi then needs the loop-path value on the preheader edge
    // (unless the guard edge already carried the agreeing value).
    remove_unreachable_blocks(f);
    for (auto& [phi, v_loop] : exit_values) {
      if (phi->parent() == nullptr) continue;  // phi died with dead code
      if (phi->incoming_index_for(preheader) < 0) phi->add_incoming(v_loop, preheader);
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// -loop-idiom
// ---------------------------------------------------------------------------

class LoopIdiomPass {
 public:
  bool run(Module& m) {
    auto rewrite = [this](Function& f, Loop& loop) { return recognise(f, loop); };
    return rewrite_loops_until_stable(m, 8, LoopOrder::kInnermostFirst, rewrite);
  }

 private:
  bool recognise(Function& f, Loop& loop) {
    // Single-block rotated loop: header == latch.
    if (loop.blocks().size() != 1) return false;
    BasicBlock* body = loop.header();
    BasicBlock* preheader = loop.preheader();
    if (preheader == nullptr) return false;
    CanonicalIV iv;
    if (!find_canonical_iv(loop, iv)) return false;
    if (iv.step != 1) return false;
    const std::int64_t trips = compute_trip_count(iv);
    if (trips <= 0) return false;
    const ConstantInt* init = ir::as_constant_int(iv.init);
    if (init == nullptr) return false;
    const auto exits = loop.exit_blocks();
    if (exits.size() != 1) return false;
    BasicBlock* exit = exits.front();

    // Accept exactly: phis, iv.next, iv.compare, one gep + store (memset) or
    // gep+load+gep+store (memcpy), terminator.
    Instruction* store = nullptr;
    std::vector<Instruction*> side;
    for (Instruction* inst : body->instructions()) {
      if (inst->is_phi() || inst == iv.next || inst == iv.compare || inst->is_terminator()) {
        continue;
      }
      switch (inst->opcode()) {
        case Opcode::kStore:
          if (store != nullptr) return false;
          store = inst;
          break;
        case Opcode::kGep:
        case Opcode::kLoad: side.push_back(inst); break;
        default: return false;
      }
    }
    if (store == nullptr) return false;

    // Destination must be gep(base, iv) with invariant base.
    Instruction* dst_gep = ir::as_instruction(store->operand(1));
    if (dst_gep == nullptr || dst_gep->opcode() != Opcode::kGep ||
        dst_gep->operand(1) != iv.phi || !is_loop_invariant(loop, dst_gep->operand(0))) {
      return false;
    }

    Value* stored = store->operand(0);

    // --- Validate everything before any mutation. ---
    bool is_memset = false;
    Instruction* src_gep = nullptr;
    Instruction* load = nullptr;
    if (is_loop_invariant(loop, stored)) {
      is_memset = true;
      for (Instruction* s : side) {
        if (s != dst_gep) return false;  // no other memory work allowed
      }
    } else {
      load = ir::as_instruction(stored);
      if (load == nullptr || load->opcode() != Opcode::kLoad || load->parent() != body ||
          load->users().size() != 1) {
        return false;
      }
      src_gep = ir::as_instruction(load->operand(0));
      if (src_gep == nullptr || src_gep->opcode() != Opcode::kGep ||
          src_gep->operand(1) != iv.phi || !is_loop_invariant(loop, src_gep->operand(0))) {
        return false;
      }
      for (Instruction* s : side) {
        if (s != dst_gep && s != src_gep && s != load) return false;
      }
      // Overlap safety: distinct concrete allocations only.
      Value* dst_root = trace_pointer_base(dst_gep->operand(0));
      Value* src_root = trace_pointer_base(src_gep->operand(0));
      const bool dst_concrete =
          ir::as_global(dst_root) != nullptr ||
          (ir::as_instruction(dst_root) != nullptr &&
           ir::as_instruction(dst_root)->opcode() == Opcode::kAlloca);
      const bool src_concrete =
          ir::as_global(src_root) != nullptr ||
          (ir::as_instruction(src_root) != nullptr &&
           ir::as_instruction(src_root)->opcode() == Opcode::kAlloca);
      if (dst_root == src_root || !dst_concrete || !src_concrete) return false;
      if (dst_gep->type() != src_gep->type()) return false;
    }
    // The only loop values observable outside may be the IV and its
    // increment (replaced below with their final constants).
    for (Instruction* inst : body->instructions()) {
      for (const Instruction* user : inst->users()) {
        if (loop.contains(user->parent())) continue;
        if (inst == iv.phi || inst == iv.next) continue;
        return false;
      }
    }

    // --- Commit. ---
    std::unique_ptr<Instruction> intrinsic;
    if (is_memset) {
      Instruction* base_ptr = preheader->insert_before(
          preheader->terminator(),
          Instruction::gep(dst_gep->operand(0), iv.init, "ms.base"));
      intrinsic = Instruction::mem_set(base_ptr, stored, f.parent()->get_i64(trips));
    } else {
      Instruction* dst_ptr = preheader->insert_before(
          preheader->terminator(),
          Instruction::gep(dst_gep->operand(0), iv.init, "mc.dst"));
      Instruction* src_ptr = preheader->insert_before(
          preheader->terminator(),
          Instruction::gep(src_gep->operand(0), iv.init, "mc.src"));
      intrinsic = Instruction::mem_cpy(dst_ptr, src_ptr, f.parent()->get_i64(trips));
    }

    // External users of the IV observe its final value.
    const std::int64_t final_phi = init->value() + (trips - 1) * iv.step;
    const std::int64_t final_next = init->value() + trips * iv.step;
    auto replace_external = [&](Instruction* v, std::int64_t value) {
      const auto users = v->users();
      for (Instruction* user :
           std::vector<Instruction*>(users.begin(), users.end())) {
        if (loop.contains(user->parent())) continue;
        Value* c = f.parent()->get_int(v->type(), value);
        if (user->is_phi()) {
          for (std::size_t i = 0; i < user->incoming_count(); ++i) {
            if (user->incoming_value(i) == v) user->set_incoming_value(i, c);
          }
        } else {
          user->replace_uses_of(v, c);
        }
      }
    };
    replace_external(iv.phi, final_phi);
    replace_external(iv.next, final_next);

    preheader->insert_before(preheader->terminator(), std::move(intrinsic));
    preheader->terminator()->replace_successor(body, exit);
    for (Instruction* phi : exit->phis()) {
      // Dedicated exits guarantee phis here only referenced the loop, whose
      // values were replaced by constants above; retarget the edge.
      phi->replace_incoming_block(body, preheader);
    }
    remove_unreachable_blocks(f);
    return true;
  }
};

// ---------------------------------------------------------------------------
// -loop-reduce (strength reduction of address computations)
// ---------------------------------------------------------------------------

class LoopReducePass {
 public:
  bool run(Module& m) {
    auto visit = [this, &m](Loop& loop, const DominatorTree&) { return reduce(m, loop); };
    return sweep_loops(m, visit);
  }

 private:
  bool reduce(Module& m, Loop& loop) {
    // A rotated-loop guard works as the insertion block: the seeded gep is
    // pure, so speculating it on the not-taken path is harmless.
    BasicBlock* preheader = unique_outside_predecessor(loop);
    BasicBlock* latch = loop.latch();
    if (preheader == nullptr || latch == nullptr) return false;
    CanonicalIV iv;
    if (!find_canonical_iv(loop, iv)) return false;

    // Collect geps indexed directly by the IV with an invariant base and no
    // users outside the loop (the replacement phi only dominates the loop).
    std::vector<Instruction*> geps;
    for (BasicBlock* bb : loop.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        if (inst->opcode() != Opcode::kGep || inst->operand(1) != iv.phi ||
            !is_loop_invariant(loop, inst->operand(0))) {
          continue;
        }
        bool internal_only = true;
        for (const Instruction* user : inst->users()) {
          if (!loop.contains(user->parent())) internal_only = false;
        }
        if (internal_only) geps.push_back(inst);
      }
    }
    if (geps.empty()) return false;

    bool changed = false;
    std::unordered_map<Value*, Instruction*> pointer_iv;  // base -> phi
    for (Instruction* gep : geps) {
      Value* base = gep->operand(0);
      Instruction* pphi = nullptr;
      const auto it = pointer_iv.find(base);
      if (it != pointer_iv.end()) {
        pphi = it->second;
      } else {
        // p0 = gep(base, init) in the preheader.
        Instruction* p0 = preheader->insert_before(
            preheader->terminator(), Instruction::gep(base, iv.init, gep->name() + ".lsr0"));
        pphi = loop.header()->insert_at(0,
                                        Instruction::phi(gep->type(), gep->name() + ".lsr"));
        // p.next = gep(p, step) placed right after the IV increment.
        BasicBlock* next_bb = iv.next->parent();
        const int next_idx = next_bb->index_of(iv.next);
        Instruction* pnext = next_bb->insert_at(
            static_cast<std::size_t>(next_idx + 1),
            Instruction::gep(pphi, m.get_int(iv.phi->type(), iv.step),
                             gep->name() + ".lsrn"));
        pphi->add_incoming(p0, preheader);
        pphi->add_incoming(pnext, latch);
        pointer_iv[base] = pphi;
      }
      gep->replace_all_uses_with(pphi);
      gep->erase_from_parent();
      changed = true;
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -indvars
// ---------------------------------------------------------------------------

class IndVarsPass {
 public:
  bool run(Module& m) {
    auto visit = [this, &m](Loop& loop, const DominatorTree&) { return canonicalise(m, loop); };
    return sweep_loops(m, visit);
  }

 private:
  bool canonicalise(Module& m, Loop& loop) {
    CanonicalIV iv;
    if (!find_canonical_iv(loop, iv)) return false;
    const std::int64_t trips = compute_trip_count(iv);
    if (trips <= 0) return false;
    const ConstantInt* init = ir::as_constant_int(iv.init);
    if (init == nullptr) return false;

    bool changed = false;
    const std::int64_t final_phi = ir::fold_binary_op(
        Opcode::kAdd, init->value(), (trips - 1) * iv.step, iv.phi->type()->bits());
    const std::int64_t final_next = ir::fold_binary_op(
        Opcode::kAdd, init->value(), trips * iv.step, iv.phi->type()->bits());

    // 1. Final-value substitution for external users.
    auto replace_external = [&](Instruction* v, std::int64_t value) {
      const auto users = v->users();
      for (Instruction* user :
           std::vector<Instruction*>(users.begin(), users.end())) {
        Value* c = m.get_int(v->type(), value);
        if (user->is_phi()) {
          for (std::size_t i = 0; i < user->incoming_count(); ++i) {
            if (user->incoming_value(i) == v && loop.contains(user->incoming_block(i)) &&
                !loop.contains(user->parent())) {
              user->set_incoming_value(i, c);
              changed = true;
            }
          }
        } else if (!loop.contains(user->parent())) {
          user->replace_uses_of(v, c);
          changed = true;
        }
      }
    };
    replace_external(iv.phi, final_phi);
    replace_external(iv.next, final_next);

    // 2. Canonicalise the exit compare to != against the exact bound.
    Instruction* cmp = iv.compare;
    const std::int64_t target = iv.compares_next ? final_next : final_phi;
    Value* iv_val = iv.compares_next ? static_cast<Value*>(iv.next) : iv.phi;
    ConstantInt* bound = m.get_int(iv.phi->type(), target);
    const bool want_pred_ne = iv.continue_on_true;
    const ir::ICmpPred want = want_pred_ne ? ir::ICmpPred::kNe : ir::ICmpPred::kEq;
    if (cmp->icmp_pred() != want || cmp->operand(0) != iv_val || cmp->operand(1) != bound) {
      if (cmp->users().size() == 1) {  // only the latch branch
        cmp->set_icmp_pred(want);
        cmp->set_operand(0, iv_val);
        cmp->set_operand(1, bound);
        changed = true;
      }
    }
    return changed;
  }
};

// ---------------------------------------------------------------------------
// -loop-unswitch
// ---------------------------------------------------------------------------

class LoopUnswitchPass {
 public:
  static constexpr std::size_t kMaxLoopInsts = 96;

  bool run(Module& m) {
    auto rewrite = [this](Function& f, Loop& loop) { return unswitch(f, loop); };
    return rewrite_loops_until_stable(m, 4, LoopOrder::kInnermostFirst, rewrite);
  }

 private:
  bool unswitch(Function& f, Loop& loop) {
    BasicBlock* preheader = loop.preheader();
    if (preheader == nullptr || !loop.has_dedicated_exits()) return false;
    std::size_t size = 0;
    for (BasicBlock* bb : loop.blocks()) size += bb->size();
    if (size > kMaxLoopInsts) return false;

    // Find an in-loop conditional branch on a loop-invariant condition.
    Instruction* branch = nullptr;
    for (BasicBlock* bb : loop.blocks()) {
      Instruction* term = bb->terminator();
      if (term->opcode() != Opcode::kCondBr) continue;
      if (term->successor(0) == term->successor(1)) continue;
      // Both successors must stay in the loop (exit tests are the loop's
      // business, not unswitchable without guard logic).
      if (!loop.contains(term->successor(0)) || !loop.contains(term->successor(1))) continue;
      if (!is_loop_invariant(loop, term->operand(0))) continue;
      branch = term;
      break;
    }
    if (branch == nullptr) return false;

    // No loop value may be used outside except through exit-block phis
    // (which we know how to patch).
    const auto exits = loop.exit_blocks();
    for (BasicBlock* bb : loop.blocks()) {
      for (Instruction* inst : bb->instructions()) {
        for (const Instruction* user : inst->users()) {
          if (loop.contains(user->parent())) continue;
          if (user->is_phi() &&
              std::find(exits.begin(), exits.end(), user->parent()) != exits.end()) {
            continue;
          }
          return false;
        }
      }
    }

    // Clone the whole loop; original takes the true side, clone the false.
    CloneContext ctx;
    const std::vector<BasicBlock*> blocks = loop.blocks();
    clone_blocks(f, blocks, ctx, ".us");

    Value* cond = branch->operand(0);
    BasicBlock* true_succ = branch->successor(0);
    BasicBlock* false_succ = branch->successor(1);
    // Original loop: branch always goes to the true side.
    BasicBlock* bb = branch->parent();
    bb->erase(branch);
    bb->push_back(Instruction::br(true_succ));
    remove_phi_edge(false_succ, bb);
    // Clone: always the false side.
    Instruction* cloned_branch = ctx.blocks.at(bb)->terminator();
    BasicBlock* cloned_true = cloned_branch->successor(0);
    BasicBlock* cb = ctx.blocks.at(bb);
    cb->erase(cloned_branch);
    cb->push_back(Instruction::br(ctx.blocks.at(false_succ)));
    remove_phi_edge(cloned_true, cb);

    // Guard in the preheader chooses the version.
    Instruction* ph_term = preheader->terminator();
    BasicBlock* header = loop.header();
    preheader->erase(ph_term);
    preheader->push_back(Instruction::cond_br(cond, header, ctx.blocks.at(header)));

    // Exit phis gain incoming edges from the cloned exiting blocks.
    for (BasicBlock* exit : exits) {
      for (Instruction* phi : exit->phis()) {
        const std::size_t n = phi->incoming_count();
        for (std::size_t i = 0; i < n; ++i) {
          BasicBlock* in = phi->incoming_block(i);
          const auto it = ctx.blocks.find(in);
          if (it == ctx.blocks.end()) continue;
          if (it->second->parent() != nullptr && exit->has_predecessor(it->second)) {
            phi->add_incoming(ctx.map_value(phi->incoming_value(i)), it->second);
          }
        }
      }
    }
    remove_unreachable_blocks(f);
    remove_dead_instructions(f);
    return true;
  }

  static void remove_phi_edge(BasicBlock* succ, BasicBlock* pred) {
    if (succ->has_predecessor(pred)) return;
    for (Instruction* phi : succ->phis()) {
      const int idx = phi->incoming_index_for(pred);
      if (idx >= 0) phi->remove_incoming(static_cast<std::size_t>(idx));
    }
  }
};

}  // namespace

bool run_loop_simplify(Module& m) { return LoopSimplifyPass{}.run(m); }
bool run_loop_rotate(Module& m) { return LoopRotatePass{}.run(m); }
bool run_licm(Module& m) { return LICMPass{}.run(m); }
bool run_loop_unroll(Module& m) { return LoopUnrollPass{}.run(m); }
bool run_loop_deletion(Module& m) { return LoopDeletionPass{}.run(m); }
bool run_loop_idiom(Module& m) { return LoopIdiomPass{}.run(m); }
bool run_loop_reduce(Module& m) { return LoopReducePass{}.run(m); }
bool run_indvars(Module& m) { return IndVarsPass{}.run(m); }
bool run_loop_unswitch(Module& m) { return LoopUnswitchPass{}.run(m); }
bool run_lcssa(Module& m) { return LCSSAPass{}.run(m); }

}  // namespace autophase::passes
