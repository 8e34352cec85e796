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
#include "progen/chstone_like.hpp"

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
  const auto& t_df = df.at(t);
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

TEST(CfgAnalyses, HeldAnalysesOutliveARebuild) {
  Module m("cache");
  Function* f = cached_loop_function(m);
  const auto dt = dominators(*f);
  const auto li = loop_info(*f);
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
