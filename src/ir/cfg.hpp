// CFG utilities shared by analyses and transforms: traversal orders,
// reachability, unreachable-block removal, edge splitting, block merging.
#pragma once

#include <vector>

#include "ir/function.hpp"

namespace autophase::ir {

class Module;

/// Blocks reachable from entry, in reverse post-order (defs before uses for
/// acyclic paths; loop headers before bodies).
std::vector<BasicBlock*> reverse_post_order(Function& f);

/// Blocks reachable from entry, post-order.
std::vector<BasicBlock*> post_order(Function& f);

/// Removes blocks unreachable from entry: survivors' phis lose incoming
/// entries from removed blocks; any (ill-formed but possible mid-transform)
/// use of a dead block's value is replaced with undef. Returns the number of
/// blocks removed.
std::size_t remove_unreachable_blocks(Function& f);

/// True if the edge from -> to is critical (from has >1 successors and to
/// has >1 predecessors).
bool is_critical_edge(BasicBlock* from, BasicBlock* to);

/// Inserts a block on the edge from -> to, updating the terminator and to's
/// phis. Every successor slot of `from` that targets `to` is redirected
/// (LLVM splits per-edge; with our condbr both-edges-same-target case folded
/// by simplifycfg this matches). Returns the new block.
BasicBlock* split_edge(BasicBlock* from, BasicBlock* to, const std::string& name);

/// If `bb` has a unique predecessor whose terminator is an unconditional
/// branch to `bb`, folds `bb` into it and erases `bb`. Returns the merged
/// predecessor, or nullptr if the pattern does not hold.
BasicBlock* merge_block_into_predecessor(BasicBlock* bb);

/// All call instructions in `m` whose callee is `f`.
std::vector<Instruction*> collect_call_sites(Module& m, const Function* f);

}  // namespace autophase::ir
