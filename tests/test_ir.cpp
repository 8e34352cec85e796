#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/cfg.hpp"
#include "ir/clone.hpp"
#include "ir/dominators.hpp"
#include "ir/fold.hpp"
#include "ir/loop_info.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "interp/interpreter.hpp"
#include "passes/pass.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "serve/module_codec.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace autophase::ir {
namespace {

TEST(Type, Interning) {
  EXPECT_EQ(Type::i32(), Type::i32());
  EXPECT_EQ(Type::pointer_to(Type::i32()), Type::pointer_to(Type::i32()));
  EXPECT_NE(Type::i32(), Type::i64());
  EXPECT_NE(Type::pointer_to(Type::i8()), Type::pointer_to(Type::i32()));
}

TEST(Type, Sizes) {
  EXPECT_EQ(Type::i1()->size_in_bytes(), 1u);
  EXPECT_EQ(Type::i8()->size_in_bytes(), 1u);
  EXPECT_EQ(Type::i16()->size_in_bytes(), 2u);
  EXPECT_EQ(Type::i32()->size_in_bytes(), 4u);
  EXPECT_EQ(Type::i64()->size_in_bytes(), 8u);
  EXPECT_EQ(Type::pointer_to(Type::i8())->size_in_bytes(), 8u);
}

TEST(Type, ToString) {
  EXPECT_EQ(Type::i32()->to_string(), "i32");
  EXPECT_EQ(Type::pointer_to(Type::i16())->to_string(), "i16*");
}

TEST(Module, ConstantInterning) {
  Module m("t");
  EXPECT_EQ(m.get_i32(5), m.get_i32(5));
  EXPECT_NE(m.get_i32(5), m.get_i32(6));
  EXPECT_NE(m.get_i32(5), m.get_i64(5));
  // Width canonicalisation: i8 255 == i8 -1.
  EXPECT_EQ(m.get_int(Type::i8(), 255), m.get_int(Type::i8(), -1));
}

/// Builds: main() { x = a + b; return x * x; } with args replaced by consts.
std::unique_ptr<Module> tiny_module() {
  auto m = std::make_unique<Module>("tiny");
  Function* f = m->create_function("main", Type::i32(), {});
  BasicBlock* bb = f->create_block("entry");
  IRBuilder b(*m);
  b.set_insert_point(bb);
  Value* x = b.add(m->get_i32(2), m->get_i32(3), "x");
  Value* y = b.mul(x, x, "y");
  b.ret(y);
  return m;
}

TEST(UseLists, TrackUsersWithMultiplicity) {
  auto m = tiny_module();
  BasicBlock* bb = m->main()->entry();
  Instruction* add = bb->inst(0);
  Instruction* mul = bb->inst(1);
  // mul uses add twice.
  ASSERT_EQ(add->users().size(), 2u);
  EXPECT_EQ(add->users()[0], mul);
  EXPECT_EQ(add->users()[1], mul);
}

TEST(UseLists, ReplaceAllUsesWith) {
  auto m = tiny_module();
  BasicBlock* bb = m->main()->entry();
  Instruction* add = bb->inst(0);
  Instruction* mul = bb->inst(1);
  add->replace_all_uses_with(m->get_i32(7));
  EXPECT_FALSE(add->has_users());
  EXPECT_EQ(mul->operand(0), m->get_i32(7));
  EXPECT_EQ(mul->operand(1), m->get_i32(7));
  add->erase_from_parent();
  EXPECT_EQ(bb->size(), 2u);
}

TEST(UseLists, EraseUnregistersOperands) {
  auto m = tiny_module();
  BasicBlock* bb = m->main()->entry();
  Instruction* add = bb->inst(0);
  Instruction* mul = bb->inst(1);
  Instruction* ret = bb->inst(2);
  ret->erase_from_parent();
  mul->erase_from_parent();
  EXPECT_FALSE(add->has_users());
}

TEST(Cfg, PredecessorMaintenance) {
  Module m("cfg");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* b1 = f->create_block("b");
  BasicBlock* c = f->create_block("c");
  IRBuilder b(m);
  b.set_insert_point(a);
  Value* cond = m.get_i1(true);
  b.cond_br(cond, b1, c);
  b.set_insert_point(b1);
  b.br(c);
  b.set_insert_point(c);
  b.ret(m.get_i32(0));

  EXPECT_EQ(c->predecessors().size(), 2u);
  EXPECT_TRUE(c->has_predecessor(a));
  EXPECT_TRUE(c->has_predecessor(b1));
  // Retarget a's edge away from c.
  a->terminator()->replace_successor(c, b1);
  EXPECT_EQ(c->predecessors().size(), 1u);
  EXPECT_EQ(b1->predecessors().size(), 2u);
}

TEST(Cfg, SplitEdgeFixesPhis) {
  Module m("split");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* b1 = f->create_block("b");
  BasicBlock* join = f->create_block("j");
  IRBuilder b(m);
  b.set_insert_point(a);
  b.cond_br(m.get_i1(true), b1, join);  // a->join is critical if join has 2 preds
  b.set_insert_point(b1);
  b.br(join);
  b.set_insert_point(join);
  Instruction* phi = b.phi(Type::i32(), "p");
  phi->add_incoming(m.get_i32(1), a);
  phi->add_incoming(m.get_i32(2), b1);
  b.ret(phi);

  ASSERT_TRUE(is_critical_edge(a, join));
  BasicBlock* mid = split_edge(a, join, "mid");
  EXPECT_EQ(phi->incoming_for_block(mid), m.get_i32(1));
  EXPECT_EQ(phi->incoming_index_for(a), -1);
  EXPECT_TRUE(verify_function(*f).is_ok());
}

TEST(Cfg, RemoveUnreachableFixesPhis) {
  Module m("unreach");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* dead = f->create_block("dead");
  BasicBlock* join = f->create_block("j");
  IRBuilder b(m);
  b.set_insert_point(a);
  b.br(join);
  b.set_insert_point(dead);
  b.br(join);
  b.set_insert_point(join);
  Instruction* phi = b.phi(Type::i32(), "p");
  phi->add_incoming(m.get_i32(1), a);
  phi->add_incoming(m.get_i32(2), dead);
  b.ret(phi);

  EXPECT_EQ(remove_unreachable_blocks(*f), 1u);
  EXPECT_EQ(phi->incoming_count(), 1u);
  EXPECT_TRUE(verify_function(*f).is_ok());
}

TEST(Cfg, MergeBlockIntoPredecessor) {
  Module m("merge");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* b1 = f->create_block("b");
  IRBuilder b(m);
  b.set_insert_point(a);
  Value* x = b.add(m.get_i32(1), m.get_i32(2));
  b.br(b1);
  b.set_insert_point(b1);
  Value* y = b.mul(x, m.get_i32(3));
  b.ret(y);

  EXPECT_NE(merge_block_into_predecessor(b1), nullptr);
  EXPECT_EQ(f->block_count(), 1u);
  EXPECT_TRUE(verify_function(*f).is_ok());
}

TEST(Dominators, DiamondDominance) {
  Module m("dom");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* a = f->create_block("a");
  BasicBlock* t = f->create_block("t");
  BasicBlock* e = f->create_block("e");
  BasicBlock* j = f->create_block("j");
  IRBuilder b(m);
  b.set_insert_point(a);
  b.cond_br(m.get_i1(true), t, e);
  b.set_insert_point(t);
  b.br(j);
  b.set_insert_point(e);
  b.br(j);
  b.set_insert_point(j);
  b.ret(m.get_i32(0));

  DominatorTree dt(*f);
  EXPECT_TRUE(dt.dominates(a, j));
  EXPECT_FALSE(dt.dominates(t, j));
  EXPECT_EQ(dt.idom(j), a);
  EXPECT_EQ(dt.idom(t), a);
  EXPECT_EQ(dt.idom(a), nullptr);
  const auto df = dt.dominance_frontiers();
  const auto& t_df = df.at(t->id());
  ASSERT_EQ(t_df.size(), 1u);
  EXPECT_EQ(t_df[0], j);
}

TEST(LoopInfo, SimpleLoopStructure) {
  Module m("loop");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* header = f->create_block("header");
  BasicBlock* body = f->create_block("body");
  BasicBlock* exit = f->create_block("exit");
  IRBuilder b(m);
  b.set_insert_point(entry);
  b.br(header);
  b.set_insert_point(header);
  Instruction* iv = b.phi(Type::i32(), "i");
  Value* cmp = b.icmp_slt(iv, m.get_i32(10));
  b.cond_br(cmp, body, exit);
  b.set_insert_point(body);
  Value* next = b.add(iv, m.get_i32(1));
  b.br(header);
  iv->add_incoming(m.get_i32(0), entry);
  iv->add_incoming(next, body);
  b.set_insert_point(exit);
  b.ret(m.get_i32(0));

  ASSERT_TRUE(verify_function(*f).is_ok());
  DominatorTree dt(*f);
  LoopInfo li(*f, dt);
  ASSERT_EQ(li.top_level().size(), 1u);
  const Loop* loop = li.top_level()[0];
  EXPECT_EQ(loop->header(), header);
  EXPECT_EQ(loop->preheader(), entry);
  EXPECT_EQ(loop->latch(), body);
  EXPECT_EQ(loop->depth(), 1);
  ASSERT_EQ(loop->exit_blocks().size(), 1u);
  EXPECT_EQ(loop->exit_blocks()[0], exit);
  EXPECT_TRUE(loop->has_dedicated_exits());
  EXPECT_EQ(li.depth_of(body), 1);
  EXPECT_EQ(li.depth_of(entry), 0);
}

TEST(LoopInfo, NestedLoopsDepth) {
  auto m = progen::build_chstone_like("matmul");
  Function* f = m->main();
  DominatorTree dt(*f);
  LoopInfo li(*f, dt);
  int max_depth = 0;
  for (const Loop* l : li.all_loops()) max_depth = std::max(max_depth, l->depth());
  EXPECT_EQ(max_depth, 3);  // the i/j/k nest
  // Innermost-first ordering puts depth-3 loops before depth-1 loops.
  const auto inner_first = li.loops_innermost_first();
  EXPECT_GE(inner_first.front()->depth(), inner_first.back()->depth());
}

/// entry -> header <-> body, header -> exit, plus an unreachable `dead`
/// block that returns. Blocks in that order.
Function* cached_loop_function(Module& m) {
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* entry = f->create_block("entry");
  BasicBlock* header = f->create_block("header");
  BasicBlock* body = f->create_block("body");
  BasicBlock* exit = f->create_block("exit");
  BasicBlock* dead = f->create_block("dead");
  IRBuilder b(m);
  b.set_insert_point(entry);
  b.br(header);
  b.set_insert_point(header);
  Instruction* iv = b.phi(Type::i32(), "i");
  b.cond_br(b.icmp_slt(iv, m.get_i32(10)), body, exit);
  b.set_insert_point(body);
  Value* next = b.add(iv, m.get_i32(1));
  b.br(header);
  iv->add_incoming(m.get_i32(0), entry);
  iv->add_incoming(next, body);
  b.set_insert_point(exit);
  b.ret(m.get_i32(0));
  b.set_insert_point(dead);
  b.ret(m.get_i32(1));
  return f;
}

/// {dominator trees, loop infos} built by the cache.
using BuildCounts = std::pair<std::uint64_t, std::uint64_t>;

/// Fresh builds by the cache on this thread since `before`.
BuildCounts builds_since(const CfgAnalysisBuilds& before) {
  const CfgAnalysisBuilds now = cfg_analysis_builds();
  return {now.dominator_trees - before.dominator_trees, now.loop_infos - before.loop_infos};
}

TEST(CfgAnalyses, InstructionEditKeepsCachedObjects) {
  Module m("cache");
  Function* f = cached_loop_function(m);
  BasicBlock* body = f->block(2);
  const auto dt = dominators(*f);
  const auto li = loop_info(*f);
  const CfgAnalysisBuilds before = cfg_analysis_builds();

  Instruction* extra = body->insert_before_terminator(
      Instruction::binary(Opcode::kMul, body->front(), m.get_i32(3), "extra"));
  EXPECT_EQ(dominators(*f), dt);
  EXPECT_EQ(loop_info(*f), li);
  extra->erase_from_parent();
  EXPECT_EQ(dominators(*f), dt);
  EXPECT_EQ(loop_info(*f), li);
  EXPECT_EQ(builds_since(before), (BuildCounts{0, 0}));
}

enum class CfgEdit { kEraseBlock, kRetargetBranch, kMoveEntry, kAddPredecessorEdge };

/// One CFG edit on cached_loop_function()'s blocks.
void apply_cfg_edit(Function& f, CfgEdit edit) {
  BasicBlock* dead = f.block(4);
  switch (edit) {
    case CfgEdit::kEraseBlock:
      f.erase_block(dead);
      break;
    case CfgEdit::kRetargetBranch:  // header exits to `dead` instead of `exit`
      f.block(1)->terminator()->set_successor(1, dead);
      break;
    case CfgEdit::kMoveEntry:
      f.move_block(f.entry(), 1);
      break;
    case CfgEdit::kAddPredecessorEdge:
      // `dead` stays unreachable, so the analyses come out the same; the
      // snapshot is exact, not semantic, and rebuilds anyway.
      dead->terminator()->erase_from_parent();
      dead->push_back(Instruction::br(f.block(3)));
      break;
  }
}

TEST(CfgAnalyses, EachCfgEditRebuilds) {
  // Each edit runs on its own function, starting from a filled cache; the
  // old analyses are held, so a rebuild cannot reuse their address.
  for (const CfgEdit edit : {CfgEdit::kEraseBlock, CfgEdit::kRetargetBranch, CfgEdit::kMoveEntry,
                             CfgEdit::kAddPredecessorEdge}) {
    SCOPED_TRACE(static_cast<int>(edit));
    Module m("cache");
    Function* f = cached_loop_function(m);
    const auto old_dt = dominators(*f);
    const auto old_li = loop_info(*f);
    const CfgAnalysisBuilds before = cfg_analysis_builds();
    apply_cfg_edit(*f, edit);
    const auto dt = dominators(*f);
    const auto li = loop_info(*f);
    EXPECT_NE(dt, old_dt);
    EXPECT_NE(li, old_li);
    EXPECT_EQ(builds_since(before), (BuildCounts{1, 1}));
    const DominatorTree fresh(*f);
    EXPECT_EQ(dt->rpo(), fresh.rpo());
    for (const BasicBlock* bb : fresh.rpo()) EXPECT_EQ(dt->idom(bb), fresh.idom(bb));
    // The rebuilt analyses are cached in turn.
    EXPECT_EQ(dominators(*f), dt);
    EXPECT_EQ(loop_info(*f), li);
    EXPECT_EQ(builds_since(before), (BuildCounts{1, 1}));
  }
}

/// Everything a DominatorTree and a LoopInfo answer about `bb`, with
/// dominance asked against each of `blocks`.
struct HeldAnswers {
  bool reachable = false;
  const BasicBlock* idom = nullptr;
  std::vector<bool> dominates;
  std::vector<BasicBlock*> children;
  const Loop* loop = nullptr;
  int depth = 0;
  std::vector<bool> in_loops;  // Loop::contains, over all_loops()

  bool operator==(const HeldAnswers&) const = default;
};

HeldAnswers held_answers(const DominatorTree& dt, const LoopInfo& li, const BasicBlock* bb,
                         const std::vector<BasicBlock*>& blocks) {
  HeldAnswers a;
  a.reachable = dt.is_reachable(bb);
  if (a.reachable) {
    a.idom = dt.idom(bb);
    for (const BasicBlock* other : blocks) {
      a.dominates.push_back(dt.is_reachable(other) && dt.dominates(bb, other));
    }
    const auto& children = dt.children(bb);
    a.children.assign(children.begin(), children.end());
  }
  a.loop = li.loop_for(bb);
  a.depth = li.depth_of(bb);
  for (const Loop* l : li.all_loops()) a.in_loops.push_back(l->contains(bb));
  return a;
}

TEST(CfgAnalyses, HeldAnalysesOutliveARebuild) {
  Module m("cache");
  Function* f = cached_loop_function(m);
  BasicBlock* header = f->block(1);
  BasicBlock* body = f->block(2);
  BasicBlock* exit = f->block(3);
  BasicBlock* dead = f->block(4);
  const auto dt = dominators(*f);
  const auto li = loop_info(*f);
  // The blocks that outlive every edit below (`exit` is erased last).
  const std::vector<BasicBlock*> survivors{f->entry(), header, body, dead};
  std::vector<HeldAnswers> answers;
  for (const BasicBlock* bb : survivors) answers.push_back(held_answers(*dt, *li, bb, survivors));
  const std::vector<BasicBlock*> rpo = dt->rpo();
  std::vector<BasicBlock*> idoms;
  for (const BasicBlock* bb : rpo) idoms.push_back(dt->idom(bb));
  ASSERT_EQ(li->top_level().size(), 1u);
  const Loop* loop = li->top_level()[0];
  const std::vector<BasicBlock*> loop_blocks = loop->blocks();

  // The cache rebuilds; the held objects must neither dangle nor change.
  apply_cfg_edit(*f, CfgEdit::kRetargetBranch);
  EXPECT_NE(dominators(*f), dt);
  EXPECT_NE(loop_info(*f), li);
  EXPECT_EQ(dt->rpo(), rpo);
  for (std::size_t i = 0; i < rpo.size(); ++i) EXPECT_EQ(dt->idom(rpo[i]), idoms[i]);
  ASSERT_EQ(li->top_level().size(), 1u);
  EXPECT_EQ(li->top_level()[0], loop);
  EXPECT_EQ(loop->blocks(), loop_blocks);

  // A block created after the held analyses, inside the loop: body ->
  // latch -> header.
  BasicBlock* latch = f->create_block_after(body, "latch");
  body->terminator()->set_successor(0, latch);
  latch->push_back(Instruction::br(header));
  header->front()->replace_incoming_block(body, latch);
  // A reordering, and the erasure of a block the retarget left unreachable.
  f->move_block(dead, 1);
  f->erase_block(exit);
  ASSERT_TRUE(verify_function(*f).is_ok());

  for (std::size_t i = 0; i < survivors.size(); ++i) {
    SCOPED_TRACE(survivors[i]->name());
    EXPECT_EQ(held_answers(*dt, *li, survivors[i], survivors), answers[i]);
  }
  EXPECT_FALSE(dt->is_reachable(latch));
  EXPECT_EQ(li->loop_for(latch), nullptr);
  EXPECT_EQ(li->depth_of(latch), 0);
  for (const Loop* l : li->all_loops()) EXPECT_FALSE(l->contains(latch));
  // The live analyses see the new block.
  EXPECT_TRUE(dominators(*f)->is_reachable(latch));
  EXPECT_EQ(loop_info(*f)->depth_of(latch), 1);
}

TEST(CfgAnalyses, ClonesStartEmpty) {
  auto src = progen::build_chstone_like("matmul");
  for (Function* f : src->functions()) (void)loop_info(*f);
  const CfgAnalysisBuilds before = cfg_analysis_builds();
  const auto deep = clone_module(*src);
  const auto rollout = clone_module_for_rollout(*src);
  const auto n = static_cast<std::uint64_t>(src->functions().size());
  for (Function* f : deep->functions()) (void)loop_info(*f);
  EXPECT_EQ(builds_since(before), (BuildCounts{n, n}));
  for (Function* f : rollout->functions()) (void)loop_info(*f);
  EXPECT_EQ(builds_since(before), (BuildCounts{2 * n, 2 * n}));
  // Cloning did not disturb the source's cache.
  for (Function* f : src->functions()) (void)loop_info(*f);
  EXPECT_EQ(builds_since(before), (BuildCounts{2 * n, 2 * n}));
}

/// A kernel after a seeded 45-pass sequence, whose edits (erasures,
/// clones, splices) leave its ids sparse.
std::unique_ptr<Module> edited_kernel(const std::string& name, std::uint64_t seed) {
  auto m = progen::build_chstone_like(name);
  Rng rng(seed);
  for (int step = 0; step < passes::kNumPasses; ++step) {
    passes::apply_pass(*m, static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1)));
  }
  return m;
}

TEST(IrIds, UniqueWithinAFunction) {
  const auto m = edited_kernel("gsm", 3);
  std::size_t sparse = 0;
  for (Function* f : m->functions()) {
    std::vector<bool> block_seen(f->block_id_bound());
    std::vector<bool> inst_seen(f->inst_id_bound());
    for (BasicBlock* bb : f->blocks()) {
      ASSERT_LT(bb->id(), block_seen.size());
      EXPECT_FALSE(block_seen[bb->id()]) << bb->name();
      block_seen[bb->id()] = true;
      for (Instruction* inst : bb->instructions()) {
        ASSERT_LT(inst->id(), inst_seen.size());
        EXPECT_FALSE(inst_seen[inst->id()]) << inst->name();
        inst_seen[inst->id()] = true;
      }
    }
    if (f->inst_id_bound() > f->instruction_count()) ++sparse;
  }
  EXPECT_GT(sparse, 0u) << "the pass sequence should have erased or re-linked instructions";
}

/// Block b has id b, and the instructions are numbered 0..n-1 in block order.
void expect_dense_ids(const Module& m) {
  for (std::size_t i = 0; i < m.function_count(); ++i) {
    const Function& f = *m.function(i);
    SCOPED_TRACE(f.name());
    std::uint32_t next_inst = 0;
    for (std::size_t b = 0; b < f.block_count(); ++b) {
      const BasicBlock* bb = f.block(b);
      EXPECT_EQ(bb->id(), b);
      for (std::size_t j = 0; j < bb->size(); ++j) EXPECT_EQ(bb->inst(j)->id(), next_inst++);
    }
    EXPECT_EQ(f.block_id_bound(), f.block_count());
    EXPECT_EQ(f.inst_id_bound(), next_inst);
  }
}

TEST(IrIds, ClonesAreDenseInBlockOrder) {
  const auto source = edited_kernel("gsm", 3);
  expect_dense_ids(*clone_module(*source));
  const auto rollout = clone_module_for_rollout(*source);
  rollout->materialize_all();
  expect_dense_ids(*rollout);
}

TEST(IrIds, ErasedIdsAreNeverIssuedAgain) {
  Module m("ids");
  Function* f = cached_loop_function(m);
  BasicBlock* body = f->block(2);
  const std::uint32_t block_bound = f->block_id_bound();
  f->erase_block(f->block(4));
  EXPECT_EQ(f->block_id_bound(), block_bound);
  EXPECT_EQ(f->create_block("fresh")->id(), block_bound);
  EXPECT_EQ(f->block_id_bound(), block_bound + 1);

  const std::uint32_t inst_bound = f->inst_id_bound();
  body->insert_before_terminator(
      Instruction::binary(Opcode::kMul, body->front(), m.get_i32(3), "extra"))
      ->erase_from_parent();
  EXPECT_EQ(f->inst_id_bound(), inst_bound + 1);
  EXPECT_EQ(body->insert_before_terminator(
                    Instruction::binary(Opcode::kMul, body->front(), m.get_i32(3), "again"))
                ->id(),
            inst_bound + 1);
}

TEST(IrIds, TakeThenInsertGivesAFreshId) {
  Module m("ids");
  Function* f = cached_loop_function(m);
  BasicBlock* body = f->block(2);
  BasicBlock* exit = f->block(3);
  Instruction* add = body->front();
  const std::uint32_t old_id = add->id();
  const std::uint32_t bound = f->inst_id_bound();
  auto owned = body->take(add);
  EXPECT_EQ(body->insert_at(0, std::move(owned)), add);
  EXPECT_EQ(add->id(), bound);
  EXPECT_NE(add->id(), old_id);
  exit->insert_at(0, body->take(add));
  EXPECT_EQ(add->id(), bound + 1);
  EXPECT_EQ(f->inst_id_bound(), bound + 2);
}

TEST(IrIds, ForeignAndUnlinkedNodesAreNotInTables) {
  // g's blocks and instructions reuse ids that f's nodes also have; every
  // table over f must still answer "not here" for them, as a pointer map
  // would, and never the entry of f's node with the same id.
  Module m("ids");
  Function* f = cached_loop_function(m);
  Function* g = m.create_function("other", Type::i32(), {Type::i32()}, {"x"});
  std::vector<BasicBlock*> g_blocks;
  for (const char* name : {"a", "b", "c"}) g_blocks.push_back(g->create_block(name));
  IRBuilder b(m);
  b.set_insert_point(g_blocks[0]);
  Value* g_sum = b.add(b.mul(g->arg(0), m.get_i32(2)), m.get_i32(1));
  b.br(g_blocks[1]);
  b.set_insert_point(g_blocks[1]);
  b.br(g_blocks[2]);
  b.set_insert_point(g_blocks[2]);
  b.ret(g_sum);

  const DominatorTree dt(*f);
  const LoopInfo li(*f, dt);
  for (const BasicBlock* bb : g_blocks) {
    ASSERT_LT(bb->id(), f->block_id_bound());
    EXPECT_FALSE(dt.is_reachable(bb));
    EXPECT_EQ(li.loop_for(bb), nullptr);
  }

  // Each malformed use in f prints as `?`, and the codec and the
  // interpreter refuse it.
  const auto expect_missing = [&](const std::string& printed) {
    const std::string text = print_module(m);
    EXPECT_NE(text.find(printed), std::string::npos) << text;
    EXPECT_THROW((void)serve::serialize_module(m), std::out_of_range);
    EXPECT_THROW((void)interp::run_module(m), std::out_of_range);
  };
  BasicBlock* header = f->block(1);
  BasicBlock* body = f->block(2);
  BasicBlock* exit = f->block(3);
  // g_sum's id is the header phi's, a non-void instruction of f.
  ASSERT_EQ(static_cast<Instruction*>(g_sum)->id(), header->front()->id());
  for (Value* foreign : {g_sum, static_cast<Value*>(g->arg(0))}) {
    exit->insert_at(0, Instruction::binary(Opcode::kAdd, foreign, m.get_i32(1)));
    expect_missing("add i32 %?, i32 1");
    exit->front()->erase_from_parent();
  }
  // A phi edge from g's block whose id is the header's.
  ASSERT_EQ(g_blocks[1]->id(), header->id());
  header->front()->add_incoming(m.get_i32(7), g_blocks[1]);
  expect_missing("[ i32 7, %? ]");
  header->front()->remove_incoming(2);
  // The phi's use of `next` while it is unlinked from the body.
  auto next = body->take(body->front());
  expect_missing("[ i32 %?, %body.2 ]");
  body->insert_at(0, std::move(next));
  EXPECT_TRUE(verify_module(m).is_ok());
}

TEST(IrIds, EditHistoryNeverReachesBytes) {
  // A deep clone renumbers densely, so it shares no id layout with its
  // edited source.
  const auto edited = edited_kernel("gsm", 3);
  const auto copy = clone_module(*edited);
  // A freshly built kernel, and one whose history differs by a splice that
  // lands where it started and a block that came and went.
  const auto fresh = progen::build_chstone_like("sha");
  const auto spliced = progen::build_chstone_like("sha");
  BasicBlock* entry = spliced->main()->entry();
  entry->insert_at(0, entry->take(entry->front()));
  spliced->main()->erase_block(spliced->main()->create_block("transient"));

  const std::pair<const Module*, const Module*> pairs[] = {{edited.get(), copy.get()},
                                                          {fresh.get(), spliced.get()}};
  for (const auto& [a, b] : pairs) {
    ASSERT_NE(a->main()->inst_id_bound(), b->main()->inst_id_bound());
    ASSERT_NE(a->main()->block_id_bound(), b->main()->block_id_bound());
    EXPECT_EQ(print_module(*a), print_module(*b));
    EXPECT_EQ(module_fingerprint(*a), module_fingerprint(*b));
    EXPECT_EQ(serve::serialize_module(*a), serve::serialize_module(*b));
  }
}

TEST(Verifier, CatchesMissingTerminator) {
  Module m("bad");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* bb = f->create_block("entry");
  IRBuilder b(m);
  b.set_insert_point(bb);
  b.add(m.get_i32(1), m.get_i32(2));
  EXPECT_FALSE(verify_function(*f).is_ok());
}

TEST(Verifier, CatchesUseBeforeDef) {
  Module m("bad2");
  Function* f = m.create_function("main", Type::i32(), {});
  BasicBlock* bb = f->create_block("entry");
  IRBuilder b(m);
  b.set_insert_point(bb);
  Value* x = b.add(m.get_i32(1), m.get_i32(2), "x");
  Value* y = b.add(x, m.get_i32(1), "y");
  b.ret(y);
  // Move y before x.
  auto owned = bb->take(static_cast<Instruction*>(y));
  bb->insert_at(0, std::move(owned));
  EXPECT_FALSE(verify_function(*f).is_ok());
}

TEST(Verifier, AcceptsAllKernels) {
  for (const auto& name : progen::chstone_benchmark_names()) {
    auto m = progen::build_chstone_like(name);
    EXPECT_TRUE(verify_module(*m).is_ok()) << name;
  }
}

TEST(Printer, DeterministicAndDistinct) {
  auto a = progen::build_chstone_like("sha");
  auto b = progen::build_chstone_like("sha");
  EXPECT_EQ(print_module(*a), print_module(*b));
  EXPECT_EQ(module_fingerprint(*a), module_fingerprint(*b));
  auto c = progen::build_chstone_like("aes");
  EXPECT_NE(module_fingerprint(*a), module_fingerprint(*c));
}

// ---------------------------------------------------------------------------
// Fingerprint: module_fingerprint is the FNV-1a of print_module's bytes, on
// every module the search and training paths key — kernels and corpus
// programs after each step of a pass sequence, lazy rollout clones included.
// The pinned digests fold in every printed text and every fingerprint, so a
// printer change that moves one byte of one module fails here.
// ---------------------------------------------------------------------------

struct PrintDigests {
  std::uint64_t texts = kFnvOffset;
  std::uint64_t fingerprints = kFnvOffset;
  std::size_t modules = 0;
};

void fold_module(const Module& m, PrintDigests& digests) {
  const std::string text = print_module(m);
  const std::uint64_t fingerprint = module_fingerprint(m);
  EXPECT_EQ(fingerprint, fnv1a(text)) << "module " << digests.modules << ":\n" << text;
  digests.texts = fnv1a(text, digests.texts);
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(fingerprint >> (8 * i));
  digests.fingerprints = fnv1a(std::string_view(bytes, sizeof bytes), digests.fingerprints);
  ++digests.modules;
}

/// Folds `program`, then each step of `sequences` seeded random 45-pass
/// sequences the way an env step takes it: a lazy rollout clone of the
/// previous step (folded before the pass, while it still reads through its
/// source), then the same clone after the pass.
void fold_pass_sequences(const Module& program, std::uint64_t seed, int sequences,
                         PrintDigests& digests) {
  fold_module(program, digests);
  Rng rng(seed);
  for (int s = 0; s < sequences; ++s) {
    std::unique_ptr<Module> current = clone_module(program);
    for (int step = 0; step < passes::kNumPasses; ++step) {
      auto next = clone_module_for_rollout(*current);
      ASSERT_TRUE(next->has_lazy_functions());
      fold_module(*next, digests);
      passes::apply_pass(*next, static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1)));
      fold_module(*next, digests);
      current = std::move(next);
    }
  }
}

TEST(Fingerprint, KernelPassSequences) {
  PrintDigests digests;
  std::uint64_t seed = 1;
  for (const auto& name : progen::chstone_benchmark_names()) {
    fold_pass_sequences(*progen::build_chstone_like(name), seed++, 3, digests);
  }
  EXPECT_EQ(digests.modules, 9u * (1 + 3 * 2 * passes::kNumPasses));
  EXPECT_EQ(digests.texts, 0x077fd69678b587b5ULL);
  EXPECT_EQ(digests.fingerprints, 0xfdca8fd2ccde45e3ULL);
}

TEST(Fingerprint, CorpusPassSequences) {
  PrintDigests digests;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    fold_pass_sequences(*progen::generate_filtered_program(seed), seed, 2, digests);
  }
  EXPECT_EQ(digests.modules, 4u * (1 + 2 * 2 * passes::kNumPasses));
  EXPECT_EQ(digests.texts, 0x16e26282fe338a3aULL);
  EXPECT_EQ(digests.fingerprints, 0xe06611a6648500b3ULL);
}

/// One module that reaches every corner of the printer: named and unnamed
/// values and blocks, a join whose predecessor labels sort differently as
/// text than as numbers, globals with and without initializers, switch,
/// condbr, phi with undef, casts, a pointer-to-pointer alloca, negative
/// constants and a void call.
std::unique_ptr<Module> printer_edge_case_module() {
  auto m = std::make_unique<Module>("edges");
  GlobalVariable* table = m->create_global(Type::i16(), 4, "table", {-3, 0, 7, -32768}, true);
  m->create_global(Type::i32(), 2, "scratch");
  Function* sink = m->create_function("sink", Type::void_ty(), {Type::i32()}, {"v"});
  sink->attrs().readnone = true;
  sink->attrs().nounwind = true;
  IRBuilder b(*m);
  b.set_insert_point(sink->create_block("entry"));
  b.ret_void();

  Function* f = m->create_function("main", Type::i32(), {Type::i32(), Type::i64()}, {"n", ""});
  std::vector<BasicBlock*> bb;
  bb.push_back(f->create_block("entry"));
  for (int i = 1; i < 12; ++i) bb.push_back(f->create_block(i == 5 ? "body" : ""));

  b.set_insert_point(bb[0]);
  Instruction* slot = b.alloca_scalar(Type::pointer_to(Type::i32()), "pp");
  Instruction* buf = b.alloca_array(Type::i32(), 3);
  b.store(buf, slot);
  Value* x = b.add(f->arg(0), m->get_i32(-5), "x");
  b.call(sink, {x});
  Value* elem = b.load(b.gep(table, m->get_i64(-1)));
  Value* wide = b.sext(elem, Type::i32());
  Instruction* sw = b.switch_inst(f->arg(0), bb[1]);
  sw->add_switch_case(m->get_i32(-1), bb[2]);
  sw->add_switch_case(m->get_i32(3), bb[9]);
  sw->add_switch_case(m->get_i32(4), bb[10]);

  b.set_insert_point(bb[1]);
  b.br(bb[11]);
  b.set_insert_point(bb[2]);
  b.cond_br(b.icmp_slt(wide, m->get_i32(-7), "neg"), bb[3], bb[9]);
  for (int i = 3; i < 8; ++i) {
    b.set_insert_point(bb[i]);
    b.br(bb[i + 1]);
  }
  b.set_insert_point(bb[8]);
  b.br(bb[11]);
  b.set_insert_point(bb[9]);
  b.br(bb[11]);
  b.set_insert_point(bb[10]);
  b.br(bb[11]);

  b.set_insert_point(bb[11]);
  Instruction* phi = b.phi(Type::i32(), "r");
  phi->add_incoming(x, bb[1]);
  phi->add_incoming(m->get_i32(-2147483648LL), bb[8]);
  phi->add_incoming(m->get_undef(Type::i32()), bb[9]);
  phi->add_incoming(wide, bb[10]);
  Value* narrow = b.trunc(phi, Type::i8(), "t");
  b.ret(b.zext(narrow, Type::i32()));
  return m;
}

TEST(Fingerprint, PrinterEdgeCases) {
  const auto m = printer_edge_case_module();
  ASSERT_TRUE(verify_module(*m).is_ok());
  const std::string text = print_module(*m);
  EXPECT_EQ(text, R"(; module 'edges'
@table = global [4 x i16] constant {-3,0,7,-32768}
@scratch = global [2 x i32]

define void @sink(i32 %v.0) readnone nounwind {
entry.0:
  ret
}

define i32 @main(i32 %n.0, i64 %1) {
entry.0:
  %pp.2 = alloca i32*, count 1
  %3 = alloca i32, count 3
  store i32* %3, i32** %pp.2
  %x.4 = add i32 %n.0, i32 -5
  call @sink(i32 %x.4)
  %5 = getelementptr i16* @table, i64 -1
  %6 = load i16* %5
  %7 = sext to i32 i16 %6
  switch i32 %n.0, default %1 [-1 -> %2, 3 -> %9, 4 -> %10]
1:  ; preds: entry.0
  br label %11
2:  ; preds: entry.0
  %neg.8 = icmp slt i32 %7, i32 -7
  condbr i1 %neg.8, label %3, label %9
3:  ; preds: 2
  br label %4
4:  ; preds: 3
  br label %body.5
body.5:  ; preds: 4
  br label %6
6:  ; preds: body.5
  br label %7
7:  ; preds: 6
  br label %8
8:  ; preds: 7
  br label %11
9:  ; preds: 2 entry.0
  br label %11
10:  ; preds: entry.0
  br label %11
11:  ; preds: 1 10 8 9
  %r.9 = phi i32 [ i32 %x.4, %1 ], [ i32 -2147483648, %8 ], [ i32 undef, %9 ], [ i32 %7, %10 ]
  %t.10 = trunc to i8 i32 %r.9
  %11 = zext to i32 i8 %t.10
  ret i32 %11
}
)");
  EXPECT_EQ(module_fingerprint(*m), fnv1a(text));
  // A lazy rollout clone prints through its source, byte for byte.
  const auto rollout = clone_module_for_rollout(*m);
  EXPECT_EQ(print_module(*rollout), text);
  EXPECT_EQ(module_fingerprint(*rollout), fnv1a(text));
}

TEST(Clone, ModuleCloneIsDeepAndEquivalent) {
  auto m = progen::build_chstone_like("gsm");
  auto copy = clone_module(*m);
  EXPECT_TRUE(verify_module(*copy).is_ok());
  EXPECT_EQ(print_module(*m), print_module(*copy));
  // Mutating the copy must not affect the original.
  const std::string before = print_module(*m);
  IRBuilder b(*copy);
  Function* f = copy->main();
  f->entry()->insert_at(0, Instruction::alloca_inst(Type::i32(), 1, "extra"));
  EXPECT_NE(print_module(*copy), before);
  EXPECT_EQ(print_module(*m), before);
  EXPECT_TRUE(verify_module(*copy).is_ok());
}

TEST(Clone, ExecutionMatches) {
  auto m = progen::build_chstone_like("adpcm");
  auto copy = clone_module(*m);
  auto r1 = interp::run_module(*m);
  auto r2 = interp::run_module(*copy);
  ASSERT_TRUE(r1.is_ok());
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r1.value().return_value, r2.value().return_value);
  EXPECT_EQ(r1.value().memory_checksum, r2.value().memory_checksum);
}

TEST(Fold, BinaryMatchesTwosComplement) {
  EXPECT_EQ(fold_binary_op(Opcode::kAdd, 0x7fffffff, 1, 32), INT32_MIN);
  EXPECT_EQ(fold_binary_op(Opcode::kSDiv, 5, 0, 32), 0);
  EXPECT_EQ(fold_binary_op(Opcode::kUDiv, -1, 2, 32), 0x7fffffff);
  EXPECT_EQ(fold_binary_op(Opcode::kShl, 1, 33, 32), 2);  // shift amount mod 32
  EXPECT_EQ(fold_binary_op(Opcode::kAShr, -8, 1, 32), -4);
  EXPECT_EQ(fold_binary_op(Opcode::kLShr, -8, 1, 32), 0x7ffffffc);
  EXPECT_EQ(fold_binary_op(Opcode::kSRem, -7, 3, 32), -1);
}

TEST(Fold, ICmpSignedVsUnsigned) {
  EXPECT_TRUE(fold_icmp_op(ICmpPred::kSlt, -1, 0, 32));
  EXPECT_FALSE(fold_icmp_op(ICmpPred::kUlt, -1, 0, 32));  // 0xffffffff > 0
  EXPECT_TRUE(fold_icmp_op(ICmpPred::kUge, -1, 1, 32));
}

}  // namespace
}  // namespace autophase::ir
