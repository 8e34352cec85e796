#include <gtest/gtest.h>

#include <bit>

#include "hls/cycle_estimator.hpp"
#include "hls/verilog.hpp"
#include "ir/builder.hpp"
#include "ir/clone.hpp"
#include "passes/pass.hpp"
#include "passes/pipelines.hpp"
#include "progen/chstone_like.hpp"
#include "progen/codegen.hpp"
#include "progen/random_program.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace autophase::hls {
namespace {

using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Type;
using ir::Value;

TEST(Timing, ChainableOpsAreCombinational) {
  auto m = std::make_unique<Module>("t");
  Function* f = m->create_function("main", Type::i32(), {});
  ir::BasicBlock* bb = f->create_block("entry");
  IRBuilder b(*m);
  b.set_insert_point(bb);
  Value* x = b.add(m->get_i32(1), m->get_i32(2));
  Value* y = b.mul(x, x);
  b.ret(y);
  EXPECT_EQ(op_timing(*static_cast<ir::Instruction*>(x)).latency, 0);
  EXPECT_GT(op_timing(*static_cast<ir::Instruction*>(x)).delay_ns, 0.0);
  EXPECT_EQ(op_timing(*static_cast<ir::Instruction*>(y)).latency, 2);
  EXPECT_EQ(op_timing(*static_cast<ir::Instruction*>(y)).resource, ResourceClass::kMultiplier);
}

TEST(Timing, ConstantShiftIsCheaperThanVariable) {
  auto m = std::make_unique<Module>("t");
  Function* f = m->create_function("main", Type::i32(), {Type::i32()});
  ir::BasicBlock* bb = f->create_block("entry");
  IRBuilder b(*m);
  b.set_insert_point(bb);
  Value* c = b.shl(f->arg(0), m->get_i32(3));
  Value* v = b.shl(f->arg(0), f->arg(0));
  b.ret(b.add(c, v));
  EXPECT_LT(op_timing(*static_cast<ir::Instruction*>(c)).delay_ns,
            op_timing(*static_cast<ir::Instruction*>(v)).delay_ns);
}

/// Chaining: several cheap ops share one FSM state at 200 MHz.
TEST(Scheduler, ChainsWithinClockPeriod) {
  auto m = std::make_unique<Module>("chain");
  Function* f = m->create_function("main", Type::i32(), {});
  ir::BasicBlock* bb = f->create_block("entry");
  IRBuilder b(*m);
  b.set_insert_point(bb);
  // Five dependent xor ops (0.7ns each) chain into one 5ns state.
  Value* v = m->get_i32(1);
  for (int i = 0; i < 5; ++i) v = b.xor_(v, m->get_i32(3 + i));
  b.ret(v);
  const auto sched = schedule_function(*f, ResourceConstraints{});
  EXPECT_EQ(sched.states.find(bb), 1);
}

TEST(Scheduler, DependentAddsSplitStates) {
  auto m = std::make_unique<Module>("adds");
  Function* f = m->create_function("main", Type::i32(), {});
  ir::BasicBlock* bb = f->create_block("entry");
  IRBuilder b(*m);
  b.set_insert_point(bb);
  // Four dependent 2ns adds exceed one 5ns period: needs 2 states.
  Value* v = m->get_i32(1);
  for (int i = 0; i < 4; ++i) v = b.add(v, m->get_i32(i));
  b.ret(v);
  const auto sched = schedule_function(*f, ResourceConstraints{});
  EXPECT_EQ(sched.states.find(bb), 2);
}

TEST(Scheduler, FasterClockNeedsMoreStates) {
  auto m = std::make_unique<Module>("freq");
  Function* f = m->create_function("main", Type::i32(), {});
  ir::BasicBlock* bb = f->create_block("entry");
  IRBuilder b(*m);
  b.set_insert_point(bb);
  Value* v = m->get_i32(1);
  for (int i = 0; i < 6; ++i) v = b.add(v, m->get_i32(i));
  b.ret(v);
  const auto slow = schedule_function(*f, ResourceConstraints::at_frequency_mhz(100));
  const auto fast = schedule_function(*f, ResourceConstraints::at_frequency_mhz(400));
  EXPECT_LT(slow.states.find(bb), fast.states.find(bb));
}

TEST(Scheduler, MemoryPortContention) {
  auto m = std::make_unique<Module>("ports");
  Function* f = m->create_function("main", Type::i32(), {});
  progen::CodeGen g(*m, *f);
  Value* arr = g.array(Type::i32(), 8, "a");
  // Four independent loads: 2 ports -> 2 issue cycles + latency.
  Value* s0 = g.get(g.elem(arr, 0));
  Value* s1 = g.get(g.elem(arr, 1));
  Value* s2 = g.get(g.elem(arr, 2));
  Value* s3 = g.get(g.elem(arr, 3));
  auto& b = g.b();
  g.ret(b.add(b.add(s0, s1), b.add(s2, s3)));

  ResourceConstraints two_ports;
  ResourceConstraints one_port;
  one_port.memory_ports = 1;
  ir::BasicBlock* body = f->block(1);
  const int states2 = schedule_function(*f, two_ports).states.find(body);
  const int states1 = schedule_function(*f, one_port).states.find(body);
  EXPECT_LT(states2, states1);
}

TEST(Scheduler, PhiOnlyBlockIsFree) {
  auto m = std::make_unique<Module>("free");
  Function* f = m->create_function("main", Type::i32(), {});
  ir::BasicBlock* a = f->create_block("a");
  ir::BasicBlock* fwd = f->create_block("fwd");
  ir::BasicBlock* j = f->create_block("j");
  IRBuilder b(*m);
  b.set_insert_point(a);
  b.br(fwd);
  b.set_insert_point(fwd);
  b.br(j);
  b.set_insert_point(j);
  b.ret(m->get_i32(0));
  const auto sched = schedule_function(*f, ResourceConstraints{});
  EXPECT_EQ(sched.states.find(fwd), 0);
  EXPECT_GE(sched.states.find(j), 1);  // ret needs a state
}

/// The modules the cost model is checked on: the nine kernels and six
/// corpus-band programs (1,700-2,500 instructions, most of them never run),
/// each after two seeded random 45-pass sequences and then as built.
std::vector<std::unique_ptr<Module>> costed_modules() {
  std::vector<std::unique_ptr<Module>> programs;
  for (const auto& name : progen::chstone_benchmark_names()) {
    programs.push_back(progen::build_chstone_like(name));
  }
  for (const std::uint64_t seed : {1u, 4u, 11u, 12u, 14u, 29u}) {
    programs.push_back(progen::generate_filtered_program(seed));
  }
  std::vector<std::unique_ptr<Module>> out;
  Rng rng(20261020);
  for (auto& program : programs) {
    for (int s = 0; s < 2; ++s) {
      std::vector<int> sequence;
      for (int step = 0; step < passes::kNumPasses; ++step) {
        sequence.push_back(static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1)));
      }
      out.push_back(ir::clone_module(*program));
      passes::apply_pass_sequence(*out.back(), sequence);
    }
    out.push_back(std::move(program));
  }
  return out;
}

TEST(CycleEstimator, MatchesFsmSimulation) {
  const auto modules = costed_modules();
  for (std::size_t i = 0; i < modules.size(); ++i) {
    const Module& m = *modules[i];
    auto est = profile_cycles(m);
    ASSERT_TRUE(est.is_ok()) << i << " " << m.name() << ": " << est.message();
    auto sim = simulate_fsm_cycles(m);
    ASSERT_TRUE(sim.is_ok()) << i << " " << m.name();
    EXPECT_EQ(est.value().cycles, sim.value()) << i << " " << m.name();
    EXPECT_GT(est.value().cycles, 0u) << i << " " << m.name();
    EXPECT_GT(est.value().area, 0.0) << i << " " << m.name();
  }
}

/// schedule_profile schedules the blocks the profile lists, each exactly as
/// schedule_module does, and nothing else: its static FSM size is the sum of
/// the profiled blocks' states.
TEST(Scheduler, ProfileScheduleCoversOnlyWhatRan) {
  const ResourceConstraints rc;
  std::size_t partial = 0;
  for (const auto& m : costed_modules()) {
    const auto run = interp::run_module(*m);
    ASSERT_TRUE(run.is_ok()) << m->name();
    const interp::Profile& profile = run.value().profile;
    const ModuleSchedule full = schedule_module(*m, rc);
    const ModuleSchedule ran = schedule_profile(profile, rc);
    int profiled_states = 0;
    for (const auto& [bb, count] : profile.block_counts) {
      EXPECT_GT(count, 0u) << m->name();
      EXPECT_EQ(ran.states_of(bb), full.states_of(bb)) << m->name() << " " << bb->name();
      profiled_states += full.states_of(bb);
    }
    int ran_states = 0;
    for (const FunctionSchedule& fs : ran.functions) ran_states += fs.total_states;
    int all_states = 0;
    for (const FunctionSchedule& fs : full.functions) all_states += fs.total_states;
    EXPECT_EQ(ran_states, profiled_states) << m->name();
    EXPECT_LE(ran.functions.size(), m->function_count()) << m->name();
    partial += ran_states < all_states ? 1 : 0;
  }
  EXPECT_GT(partial, 0u);
}

TEST(Scheduler, AreaOfALazyCloneLeavesItLazy) {
  const std::unique_ptr<Module> sources[] = {progen::build_chstone_like("gsm"),
                                             progen::generate_filtered_program(1)};
  for (const auto& src : sources) {
    const auto lazy = ir::clone_module_for_rollout(*src);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(estimate_area(*lazy)),
              std::bit_cast<std::uint64_t>(estimate_area(*src)))
        << src->name();
    for (const Function* f : lazy->functions()) {
      EXPECT_TRUE(f->has_lazy_body()) << src->name() << " " << f->name();
    }
  }
}

// ---------------------------------------------------------------------------
// CostCharacterization: everything the reward is made of, for every costed
// module, folded into one pinned digest: profile_cycles' cycles, FSM cycles,
// burst cycles and area, and the interpreter's instruction count, return
// value and memory checksum. A change to the profiler, the scheduler or the
// interpreter that moves one number of one module fails here.
// ---------------------------------------------------------------------------

TEST(CostCharacterization, ProfilesAsPinned) {
  const auto modules = costed_modules();
  std::uint64_t digest = kFnvOffset;
  for (const auto& m : modules) {
    const auto est = profile_cycles(*m);
    const auto run = interp::run_module(*m);
    ASSERT_TRUE(est.is_ok()) << m->name() << ": " << est.message();
    ASSERT_TRUE(run.is_ok()) << m->name() << ": " << run.message();
    const CycleEstimate& e = est.value();
    const interp::ExecutionResult& r = run.value();
    for (const std::uint64_t v :
         {e.cycles, e.fsm_cycles, e.burst_cycles, std::bit_cast<std::uint64_t>(e.area),
          r.instructions_executed, static_cast<std::uint64_t>(r.return_value),
          r.memory_checksum}) {
      digest = hash_combine(digest, v);
    }
  }
  EXPECT_EQ(modules.size(), 15u * 3);
  EXPECT_EQ(digest, 0xbc9de810488b5b62ULL) << std::hex << "0x" << digest;
}

TEST(CycleEstimator, LoopDominatesCost) {
  // A loop executing 100 times must cost roughly 100x its body.
  auto m = std::make_unique<Module>("loopcost");
  Function* f = m->create_function("main", Type::i32(), {});
  progen::CodeGen g(*m, *f);
  Value* acc = g.local_i32("acc");
  Value* i = g.local_i32("i");
  g.set(acc, 0);
  g.count_loop(i, 0, 100, [&] { g.set(acc, g.b().add(g.get(acc), g.get(i))); });
  g.ret(g.get(acc));
  auto est = profile_cycles(*m);
  ASSERT_TRUE(est.is_ok());
  EXPECT_GT(est.value().cycles, 200u);
  EXPECT_LT(est.value().cycles, 2000u);
}

TEST(Verilog, EmitsFsmModules) {
  auto m = progen::build_chstone_like("matmul");
  const std::string rtl = emit_verilog_module(*m);
  EXPECT_NE(rtl.find("module main"), std::string::npos);
  EXPECT_NE(rtl.find("endmodule"), std::string::npos);
  EXPECT_NE(rtl.find("posedge clk"), std::string::npos);
  EXPECT_NE(rtl.find("FSM states"), std::string::npos);
}

/// The state `start` enters in the RTL of a one-function module.
int start_state(const std::string& rtl) {
  const std::string marker = "0: if (start) begin done <= 1'b0; state <= ";
  const std::size_t pos = rtl.find(marker);
  return pos == std::string::npos ? -1 : std::atoi(rtl.c_str() + pos + marker.size());
}

/// RTL follows the function's block order, not where its blocks happen to
/// sit in memory: an O3'd kernel and its deep clone emit the same bytes, and
/// each function starts in its entry block's first state (after any empty
/// blocks the entry branches through). The digest pins every byte.
TEST(Verilog, O3KernelsEmitInBlockOrderFromTheEntry) {
  const ResourceConstraints rc;
  std::uint64_t digest = kFnvOffset;
  for (const auto& name : progen::chstone_benchmark_names()) {
    auto m = progen::build_chstone_like(name);
    passes::run_o3(*m);
    const std::string rtl = emit_verilog_module(*m, rc);
    EXPECT_EQ(rtl, emit_verilog_module(*ir::clone_module(*m), rc)) << name;
    digest = fnv1a(rtl, digest);
    for (Function* f : m->functions()) {
      const FunctionSchedule sched = schedule_function(*f, rc);
      const auto states = [&](const ir::BasicBlock* bb) { return sched.states.find(bb); };
      const ir::BasicBlock* entry = f->entry();
      for (std::size_t hops = 0; states(entry) == 0 && hops < f->block_count(); ++hops) {
        ASSERT_EQ(entry->terminator()->opcode(), ir::Opcode::kBr) << name;
        entry = entry->terminator()->successor(0);
      }
      int expected = 1;
      for (std::size_t b = 0; f->block(b) != entry; ++b) expected += states(f->block(b));
      EXPECT_EQ(start_state(emit_verilog(*f, sched, rc)), expected) << name << " " << f->name();
    }
  }
  EXPECT_EQ(digest, 0x972eb27e73da4c6cULL) << std::hex << "0x" << digest;
}

/// The headline substrate sanity check: -O3 must beat -O0 on every kernel
/// (the paper's Fig. 7 shows -O0 at -23% vs -O3).
TEST(CycleEstimator, O3BeatsO0OnEveryKernel) {
  for (const auto& name : progen::chstone_benchmark_names()) {
    auto m = progen::build_chstone_like(name);
    const auto o0 = profile_cycles(*m);
    ASSERT_TRUE(o0.is_ok()) << name;
    passes::run_o3(*m);
    const auto o3 = profile_cycles(*m);
    ASSERT_TRUE(o3.is_ok()) << name;
    EXPECT_LT(o3.value().cycles, o0.value().cycles) << name;
  }
}

}  // namespace
}  // namespace autophase::hls
