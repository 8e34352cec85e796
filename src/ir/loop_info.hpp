// Natural-loop analysis: back edges via the dominator tree, loop nesting
// forest, and the canonical-form queries (preheader / latch / dedicated
// exits) that LLVM's loop passes require. AutoPhase deliberately does NOT
// auto-canonicalise inside loop passes: -loop-simplify is an explicit pass,
// which strengthens the ordering sensitivity the paper studies.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ir/dominators.hpp"
#include "ir/function.hpp"
#include "ir/id_table.hpp"

namespace autophase::ir {

class Loop {
 public:
  Loop(BasicBlock* header, std::vector<BasicBlock*> blocks)
      : header_(header), blocks_(std::move(blocks)) {}

  [[nodiscard]] BasicBlock* header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<BasicBlock*>& blocks() const noexcept { return blocks_; }
  [[nodiscard]] bool contains(const BasicBlock* bb) const noexcept;
  [[nodiscard]] bool contains(const Loop* other) const noexcept;

  [[nodiscard]] Loop* parent() const noexcept { return parent_; }
  [[nodiscard]] const std::vector<Loop*>& subloops() const noexcept { return subloops_; }
  /// Nesting depth; top-level loops have depth 1.
  [[nodiscard]] int depth() const noexcept;

  /// Unique out-of-loop predecessor of the header whose only successor is
  /// the header; nullptr when not in loop-simplify form.
  [[nodiscard]] BasicBlock* preheader() const;
  /// All in-loop predecessors of the header (back-edge sources).
  [[nodiscard]] std::vector<BasicBlock*> latches() const;
  /// The unique latch, or nullptr when there are several.
  [[nodiscard]] BasicBlock* latch() const;
  /// In-loop blocks with a successor outside the loop.
  [[nodiscard]] std::vector<BasicBlock*> exiting_blocks() const;
  /// Out-of-loop successor blocks (deduplicated).
  [[nodiscard]] std::vector<BasicBlock*> exit_blocks() const;
  /// True if every exit block's predecessors are all inside the loop
  /// (loop-simplify's "dedicated exits" property).
  [[nodiscard]] bool has_dedicated_exits() const;

 private:
  friend class LoopInfo;

  BasicBlock* header_;
  std::vector<BasicBlock*> blocks_;  // header first
  Loop* parent_ = nullptr;
  std::vector<Loop*> subloops_;
};

class LoopInfo {
 public:
  LoopInfo(Function& f, const DominatorTree& dt);

  [[nodiscard]] const std::vector<Loop*>& top_level() const noexcept { return top_level_; }
  /// Every loop; outer loops precede their subloops.
  [[nodiscard]] std::vector<Loop*> all_loops() const;
  /// Every loop, innermost first (safe order for transforms).
  [[nodiscard]] std::vector<Loop*> loops_innermost_first() const;
  /// Innermost loop containing bb, or nullptr (also for blocks of other
  /// functions and blocks created after the build).
  [[nodiscard]] Loop* loop_for(const BasicBlock* bb) const noexcept {
    return innermost_.find(bb);
  }
  /// Loop nesting depth of a block (0 = not in any loop).
  [[nodiscard]] int depth_of(const BasicBlock* bb) const;

 private:
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<Loop*> top_level_;
  IdTable<BasicBlock, Loop*> innermost_;
};

// ---------------------------------------------------------------------------
// Cached CFG analyses. The passes reach a function's DominatorTree and
// LoopInfo through dominators() and loop_info(), which keep them in the
// function until its CFG changes. The contract:
//
// * The cache is checked against an exact snapshot of the CFG the analyses
//   were built from: the block order, each terminator's successor list and
//   each block's predecessor list, all as block ids. Ids are never reused, so
//   an equal snapshot means the same blocks. Both analyses are pure functions
//   of that graph, and value_dominates() reads instruction order live, so a
//   hit always equals a fresh build. Nothing trusts a pass's `changed` bit
//   and no pass invalidates anything: an instruction-only rewrite (instcombine,
//   GVN, DCE) keeps the analyses, and any CFG edit rebuilds them at the next
//   call. A hit costs one walk over the blocks and edges. In builds without
//   NDEBUG every hit is also compared with a fresh build, and a difference
//   aborts.
// * Only the function's owner fills its cache. The accessors take a mutable
//   Function because the CoW source modules of rollout clones are read by many
//   threads at once and must never be written. A cloned function starts with
//   an empty cache.
// * A returned analysis stays valid, and unchanged, for as long as the caller
//   holds it, even after a rebuild replaces it in the cache. Like a locally
//   built one, it describes the CFG of the call, not later edits: a block
//   created after it is unknown to it (not reachable, in no loop), and every
//   older block that still exists keeps its answers.
// * The verifier and the tests build fresh analyses with the constructors, so
//   what checks the passes never shares their cache.
// ---------------------------------------------------------------------------

/// The function's dominator tree, rebuilt only if its CFG changed.
[[nodiscard]] std::shared_ptr<const DominatorTree> dominators(Function& f);

/// The function's loop info (over dominators(f)), rebuilt only if its CFG
/// changed.
[[nodiscard]] std::shared_ptr<const LoopInfo> loop_info(Function& f);

/// Fresh builds made by dominators() and loop_info() on the calling thread
/// (cache misses), since the thread started.
struct CfgAnalysisBuilds {
  std::uint64_t dominator_trees = 0;
  std::uint64_t loop_infos = 0;
};
[[nodiscard]] CfgAnalysisBuilds cfg_analysis_builds() noexcept;

}  // namespace autophase::ir
