// Shared transform utilities used by many Table-1 passes.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "ir/dominators.hpp"
#include "ir/loop_info.hpp"
#include "ir/module.hpp"

namespace autophase::passes {

/// True if the instruction can be removed when unused: not a terminator and
/// no side effects (loads and readnone calls qualify; stores do not).
bool is_trivially_dead(const ir::Instruction* inst);

/// Removes trivially-dead instructions until fixpoint; returns count removed.
std::size_t remove_dead_instructions(ir::Function& f);
std::size_t remove_dead_instructions(ir::Module& m);

/// Algebraic / constant simplification of a single instruction. Returns the
/// value the instruction simplifies to (an existing value or a constant), or
/// nullptr when no simplification applies. Does not mutate the instruction.
ir::Value* simplify_instruction(ir::Instruction* inst);

/// Promotes the given entry-block scalar allocas to SSA registers (standard
/// iterated-dominance-frontier phi placement + renaming). Allocas whose uses
/// are not all direct loads/stores are skipped. Returns how many allocas
/// were promoted. Shared by -mem2reg, -sroa, -scalarrepl-ssa.
std::size_t promote_allocas(ir::Function& f, const std::vector<ir::Instruction*>& allocas);

/// All promotable scalar allocas of the entry block.
std::vector<ir::Instruction*> find_promotable_allocas(ir::Function& f);

/// Follows gep/bitcast chains to the base pointer (alloca, global, argument,
/// call result, or phi/select -> nullptr for "unknown").
ir::Value* trace_pointer_base(ir::Value* pointer);

/// Canonical induction variable of a rotated (do-while) loop:
///   iv   = phi [init from preheader, next from latch]
///   next = add iv, step          (step a non-zero constant)
///   latch terminator: condbr(icmp(pred, iv-or-next, bound), ...)
/// Absent fields are nullptr when not recognised.
struct CanonicalIV {
  ir::Instruction* phi = nullptr;
  ir::Instruction* next = nullptr;      // the add
  ir::Instruction* compare = nullptr;   // latch icmp, if any
  ir::Value* init = nullptr;
  ir::Value* bound = nullptr;           // other icmp operand
  std::int64_t step = 0;
  bool compares_next = false;           // icmp reads `next` (vs. `phi`)
  bool continue_on_true = false;        // condbr true-successor stays in loop
};

/// Recognises the canonical IV of a loop in rotated form (single latch
/// ending in a conditional branch with one in-loop successor). Returns
/// whether recognition succeeded.
bool find_canonical_iv(const ir::Loop& loop, CanonicalIV& out);

/// Exact trip count of a rotated loop with constant init/step/bound,
/// obtained by bounded symbolic iteration of the do-while exit test.
/// Returns -1 when unknown or above `max_trips`.
std::int64_t compute_trip_count(const CanonicalIV& iv, std::int64_t max_trips = 4096);

/// True if `v` is defined outside the loop (or is a constant/argument).
bool is_loop_invariant(const ir::Loop& loop, const ir::Value* v);

/// The single out-of-loop predecessor of the loop header, regardless of its
/// terminator shape (unlike Loop::preheader this accepts rotated-loop
/// guards, whose conditional branch disqualifies them as LLVM preheaders).
/// nullptr when the header has several outside predecessors.
ir::BasicBlock* unique_outside_predecessor(const ir::Loop& loop);

// ---------------------------------------------------------------------------
// Loop-pass drivers. Every loop pass reaches its loops through one of these
// two, so they are the only place the loop passes fetch a DominatorTree and
// LoopInfo (from the function's cache, ir::dominators / ir::loop_info).
// Neither short-circuits: a change in one function or loop never stops the
// visit of the next. Each returns whether any callback reported a change.
// ---------------------------------------------------------------------------

/// Sweep: one DominatorTree + LoopInfo per function, then `visit` on every
/// loop, innermost first. For passes whose rewrites keep the loop structure.
bool sweep_loops(ir::Module& m,
                 const std::function<bool(ir::Loop&, const ir::DominatorTree&)>& visit);

/// Order in which rewrite_loops_until_stable offers loops.
enum class LoopOrder { kOuterFirst, kInnermostFirst };

/// Restart-on-change: per function, up to `max_rounds` rounds of fetching
/// the LoopInfo and offering the loops in `order` to `rewrite`. A rewrite
/// that returns true invalidated the analyses, so the round ends there and
/// the next one fetches them again (rebuilt if the CFG changed); a round
/// without a rewrite ends the function. For passes that restructure the CFG.
bool rewrite_loops_until_stable(ir::Module& m, int max_rounds, LoopOrder order,
                                const std::function<bool(ir::Function&, ir::Loop&)>& rewrite);

}  // namespace autophase::passes
