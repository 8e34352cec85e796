#include "ir/loop_info.hpp"

#include <algorithm>
#include <cassert>

namespace autophase::ir {

bool Loop::contains(const BasicBlock* bb) const noexcept {
  return std::find(blocks_.begin(), blocks_.end(), bb) != blocks_.end();
}

bool Loop::contains(const Loop* other) const noexcept {
  return other != nullptr && contains(other->header_);
}

int Loop::depth() const noexcept {
  int d = 1;
  for (const Loop* l = parent_; l != nullptr; l = l->parent_) ++d;
  return d;
}

BasicBlock* Loop::preheader() const {
  BasicBlock* candidate = nullptr;
  for (BasicBlock* p : header_->unique_predecessors()) {
    if (contains(p)) continue;
    if (candidate != nullptr && candidate != p) return nullptr;  // multiple outside preds
    candidate = p;
  }
  if (candidate == nullptr) return nullptr;
  const auto succs = candidate->successors();
  if (succs.size() != 1 || succs[0] != header_) return nullptr;
  return candidate;
}

std::vector<BasicBlock*> Loop::latches() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* p : header_->unique_predecessors()) {
    if (contains(p)) out.push_back(p);
  }
  return out;
}

BasicBlock* Loop::latch() const {
  const auto ls = latches();
  return ls.size() == 1 ? ls.front() : nullptr;
}

std::vector<BasicBlock*> Loop::exiting_blocks() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* bb : blocks_) {
    for (BasicBlock* s : bb->successors()) {
      if (!contains(s)) {
        out.push_back(bb);
        break;
      }
    }
  }
  return out;
}

std::vector<BasicBlock*> Loop::exit_blocks() const {
  std::vector<BasicBlock*> out;
  for (BasicBlock* bb : blocks_) {
    for (BasicBlock* s : bb->successors()) {
      if (!contains(s) && std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
    }
  }
  return out;
}

bool Loop::has_dedicated_exits() const {
  for (BasicBlock* exit : exit_blocks()) {
    for (BasicBlock* p : exit->unique_predecessors()) {
      if (!contains(p)) return false;
    }
  }
  return true;
}

LoopInfo::LoopInfo(Function& f, const DominatorTree& dt) {
  // 1. Find back edges tail->header (header dominates tail), grouped by the
  //    header's RPO index, so headers come out in RPO order.
  const auto& rpo = dt.rpo();
  std::vector<std::vector<BasicBlock*>> backedges(rpo.size());
  for (BasicBlock* bb : rpo) {
    for (BasicBlock* succ : bb->successors()) {
      if (dt.is_reachable(succ) && dt.dominates(succ, bb)) {
        backedges[static_cast<std::size_t>(dt.rpo_index(succ))].push_back(bb);
      }
    }
  }

  // 2. For each header, collect the natural loop: header + all blocks that
  //    reach a latch without passing through the header. The header is
  //    marked first so the reverse walk never expands through it (self-loop
  //    latches included). A block is in the current loop when its mark is
  //    the header's RPO index.
  std::vector<int> mark(rpo.size(), -1);
  const auto enter = [&](const BasicBlock* bb, int stamp) {
    const int i = dt.rpo_index(bb);
    if (i < 0 || mark[static_cast<std::size_t>(i)] == stamp) return false;
    mark[static_cast<std::size_t>(i)] = stamp;
    return true;
  };
  for (std::size_t h = 0; h < rpo.size(); ++h) {
    if (backedges[h].empty()) continue;
    BasicBlock* header = rpo[h];
    const int stamp = static_cast<int>(h);
    std::vector<BasicBlock*> blocks{header};
    enter(header, stamp);
    std::vector<BasicBlock*> worklist;
    for (BasicBlock* latch : backedges[h]) {
      if (enter(latch, stamp)) worklist.push_back(latch);
    }
    while (!worklist.empty()) {
      BasicBlock* bb = worklist.back();
      worklist.pop_back();
      blocks.push_back(bb);
      for (BasicBlock* p : bb->unique_predecessors()) {
        if (enter(p, stamp)) worklist.push_back(p);
      }
    }
    // Keep header first, rest in deterministic (RPO) order.
    std::sort(blocks.begin() + 1, blocks.end(), [&](BasicBlock* a, BasicBlock* b) {
      return dt.rpo_index(a) < dt.rpo_index(b);
    });
    loops_.push_back(std::make_unique<Loop>(header, std::move(blocks)));
  }

  // 3. Build the nesting forest by block-set containment. Sort by size so a
  //    loop's parent is the smallest strictly-containing loop.
  std::vector<Loop*> by_size;
  for (const auto& l : loops_) by_size.push_back(l.get());
  std::sort(by_size.begin(), by_size.end(),
            [](const Loop* a, const Loop* b) { return a->blocks().size() < b->blocks().size(); });
  for (std::size_t i = 0; i < by_size.size(); ++i) {
    Loop* inner = by_size[i];
    for (std::size_t j = i + 1; j < by_size.size(); ++j) {
      Loop* outer = by_size[j];
      if (outer != inner && outer->contains(inner->header())) {
        inner->parent_ = outer;
        outer->subloops_.push_back(inner);
        break;
      }
    }
    if (inner->parent_ == nullptr) top_level_.push_back(inner);
  }

  // 4. Innermost-loop table: smallest loop containing each block.
  innermost_.reset(f, nullptr);
  for (Loop* l : by_size) {
    for (BasicBlock* bb : l->blocks()) {
      if (innermost_[bb] == nullptr) innermost_[bb] = l;
    }
  }
}

std::vector<Loop*> LoopInfo::all_loops() const {
  std::vector<Loop*> out;
  std::vector<Loop*> stack(top_level_.rbegin(), top_level_.rend());
  while (!stack.empty()) {
    Loop* l = stack.back();
    stack.pop_back();
    out.push_back(l);
    for (auto it = l->subloops().rbegin(); it != l->subloops().rend(); ++it) stack.push_back(*it);
  }
  return out;
}

std::vector<Loop*> LoopInfo::loops_innermost_first() const {
  auto out = all_loops();
  std::reverse(out.begin(), out.end());
  return out;
}

int LoopInfo::depth_of(const BasicBlock* bb) const {
  const Loop* l = loop_for(bb);
  return l == nullptr ? 0 : l->depth();
}

namespace {

thread_local CfgAnalysisBuilds t_builds;

/// Feeds `emit` the CFG snapshot of `f`, one word at a time: per block in
/// block order, the block's id, its successor count and successors (as
/// BasicBlock::successors() reports them), then its predecessor count and
/// predecessors. The counts make the sequence decode one way only.
template <typename Emit>
void walk_cfg(const Function& f, Emit&& emit) {
  const auto count = [](std::size_t n) { return static_cast<std::uint32_t>(n); };
  for (std::size_t i = 0, n = f.block_count(); i < n; ++i) {
    const BasicBlock* bb = f.block(i);
    emit(bb->id());
    const Instruction* term = bb->terminator();
    const std::size_t succs = term == nullptr ? 0 : term->successor_count();
    emit(count(succs));
    for (std::size_t s = 0; s < succs; ++s) emit(term->successor(s)->id());
    emit(count(bb->predecessors().size()));
    for (const BasicBlock* p : bb->predecessors()) emit(p->id());
  }
}

bool matches_snapshot(const Function& f, const std::vector<std::uint32_t>& snapshot) {
  std::size_t pos = 0;
  bool same = true;
  walk_cfg(f, [&](std::uint32_t w) {
    same = same && pos < snapshot.size() && snapshot[pos] == w;
    ++pos;
  });
  return same && pos == snapshot.size();
}

#ifndef NDEBUG
bool same_tree(const DominatorTree& a, const DominatorTree& b) {
  if (a.rpo() != b.rpo()) return false;
  for (const BasicBlock* bb : a.rpo()) {
    if (a.idom(bb) != b.idom(bb) || a.children(bb) != b.children(bb)) return false;
  }
  return true;
}

bool same_loops(const LoopInfo& a, const LoopInfo& b) {
  const auto header_of = [](const Loop* l) { return l == nullptr ? nullptr : l->header(); };
  const auto la = a.all_loops();
  const auto lb = b.all_loops();
  if (la.size() != lb.size()) return false;
  for (std::size_t i = 0; i < la.size(); ++i) {
    const Loop& x = *la[i];
    const Loop& y = *lb[i];
    if (x.header() != y.header() || x.blocks() != y.blocks() ||
        header_of(x.parent()) != header_of(y.parent()) ||
        x.subloops().size() != y.subloops().size()) {
      return false;
    }
    for (std::size_t j = 0; j < x.subloops().size(); ++j) {
      if (x.subloops()[j]->header() != y.subloops()[j]->header()) return false;
    }
  }
  return true;
}
#endif

}  // namespace

std::shared_ptr<const DominatorTree> dominators(Function& f) {
  Function::CfgAnalyses& cache = f.cfg_analyses_;
  if (cache.tree != nullptr && matches_snapshot(f, cache.cfg)) {
    assert(same_tree(*cache.tree, DominatorTree(f)) && "cached dominator tree is stale");
    return cache.tree;
  }
  cache.cfg.clear();
  walk_cfg(f, [&](std::uint32_t w) { cache.cfg.push_back(w); });
  cache.tree = std::make_shared<const DominatorTree>(f);
  cache.loops.reset();
  ++t_builds.dominator_trees;
  return cache.tree;
}

std::shared_ptr<const LoopInfo> loop_info(Function& f) {
  const auto tree = dominators(f);  // re-validates the snapshot
  Function::CfgAnalyses& cache = f.cfg_analyses_;
  if (cache.loops != nullptr) {
    assert(same_loops(*cache.loops, LoopInfo(f, DominatorTree(f))) && "cached loop info is stale");
    return cache.loops;
  }
  cache.loops = std::make_shared<const LoopInfo>(f, *tree);
  ++t_builds.loop_infos;
  return cache.loops;
}

CfgAnalysisBuilds cfg_analysis_builds() noexcept { return t_builds; }

}  // namespace autophase::ir
