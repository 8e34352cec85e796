// Cross-module integration invariants: the full compile->schedule->profile
// pipeline, hand-crafted good orderings vs single passes, RTL emission, and
// determinism guarantees the experiment harnesses rely on.
#include <gtest/gtest.h>

#include "core/autophase.hpp"
#include "hls/verilog.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/pass.hpp"
#include "passes/pipelines.hpp"
#include "progen/chstone_like.hpp"
#include "progen/codegen.hpp"
#include "progen/random_program.hpp"
#include "rl/env.hpp"
#include "runtime/eval_service.hpp"

namespace autophase {
namespace {

int pass_id(const char* name) { return passes::PassRegistry::instance().index_of(name); }

TEST(Integration, GoodOrderingBeatsItsOwnPrefixOnMatmul) {
  auto m = progen::build_chstone_like("matmul");
  const std::vector<int> mem2reg_only = {pass_id("-mem2reg")};
  const std::vector<int> loop_chain = {
      pass_id("-mem2reg"),     pass_id("-loop-simplify"), pass_id("-loop-rotate"),
      pass_id("-loop-simplify"), pass_id("-indvars"),       pass_id("-loop-unroll"),
      pass_id("-gvn"),         pass_id("-instcombine"),   pass_id("-simplifycfg"),
      pass_id("-adce")};
  const std::uint64_t short_seq = core::cycles_with_sequence(*m, mem2reg_only);
  const std::uint64_t long_seq = core::cycles_with_sequence(*m, loop_chain);
  EXPECT_LT(long_seq, short_seq);
  EXPECT_LT(short_seq, core::o0_cycles(*m));
}

TEST(Integration, OrderMattersRotateBeforeUnroll) {
  // The Fig. 6 asymmetry, measured in cycles on a small summing loop (the
  // unroller requires rotated do-while form, so rotate-last achieves
  // nothing within the same sequence).
  auto m = std::make_unique<ir::Module>("loop");
  ir::Function* f = m->create_function("main", ir::Type::i32(), {});
  (void)f;
  {
    progen::CodeGen g(*m, *f);
    ir::Value* acc = g.local_i32("acc");
    ir::Value* i = g.local_i32("i");
    g.set(acc, 0);
    g.count_loop(i, 0, 12, [&] { g.set(acc, g.b().add(g.get(acc), g.get(i))); });
    g.ret(g.get(acc));
  }
  passes::apply_pass(*m, pass_id("-mem2reg"));
  passes::apply_pass(*m, pass_id("-loop-simplify"));

  auto rotate_first = ir::clone_module(*m);
  EXPECT_TRUE(passes::apply_pass(*rotate_first, pass_id("-loop-rotate")));
  EXPECT_TRUE(passes::apply_pass(*rotate_first, pass_id("-loop-unroll")));

  auto unroll_first = ir::clone_module(*m);
  EXPECT_FALSE(passes::apply_pass(*unroll_first, pass_id("-loop-unroll")));

  // And the unrolled version's cycles cannot be worse than the merely
  // rotated one.
  auto rotated_only = ir::clone_module(*m);
  passes::apply_pass(*rotated_only, pass_id("-loop-rotate"));
  runtime::EvalService service;
  EXPECT_LE(service.measure(*rotate_first).cycles, service.measure(*rotated_only).cycles);
}

TEST(Integration, O3IsNearFixpoint) {
  // Running -O3 twice must not change cycles much (pipeline stability).
  for (const auto& name : {"gsm", "sha"}) {
    auto m = progen::build_chstone_like(name);
    passes::run_o3(*m);
    const auto once = hls::profile_cycles(*m);
    passes::run_o3(*m);
    const auto twice = hls::profile_cycles(*m);
    ASSERT_TRUE(once.is_ok() && twice.is_ok());
    EXPECT_LE(twice.value().cycles, once.value().cycles);
    EXPECT_GE(static_cast<double>(twice.value().cycles),
              0.8 * static_cast<double>(once.value().cycles))
        << name;
  }
}

TEST(Integration, SequenceEvaluationIsDeterministic) {
  auto m = progen::build_chstone_like("blowfish");
  const std::vector<int> seq = {38, 29, 23, 33, 7, 30, 31};
  const std::uint64_t a = core::cycles_with_sequence(*m, seq);
  const std::uint64_t b = core::cycles_with_sequence(*m, seq);
  EXPECT_EQ(a, b);
}

TEST(Integration, AreaTimeTradeoff) {
  // mem2reg strictly removes instructions -> area drops; the full -O3
  // pipeline trades area for time (inlining + unrolling duplicate logic) —
  // the co-optimisation tension §5.1 mentions when discussing multi-
  // objective rewards.
  auto m = progen::build_chstone_like("gsm");
  const double at_o0 = hls::estimate_area(*m);
  auto promoted = ir::clone_module(*m);
  passes::apply_pass(*promoted, pass_id("-mem2reg"));
  EXPECT_LT(hls::estimate_area(*promoted), at_o0);
  passes::run_o3(*m);
  EXPECT_GT(hls::estimate_area(*m), 0.0);
}

TEST(Integration, RtlEmissionForEveryKernelAndOrdering) {
  for (const auto& name : progen::chstone_benchmark_names()) {
    auto m = progen::build_chstone_like(name);
    passes::run_o3(*m);
    const std::string rtl = hls::emit_verilog_module(*m);
    EXPECT_NE(rtl.find("module main"), std::string::npos) << name;
    EXPECT_NE(rtl.find("endmodule"), std::string::npos) << name;
    // One module per function.
    std::size_t modules = 0;
    for (std::size_t pos = 0; (pos = rtl.find("\nmodule ", pos)) != std::string::npos; ++pos) {
      ++modules;
    }
    EXPECT_GE(modules + 1, m->function_count()) << name;
  }
}

TEST(Integration, EnvAgreesWithFacadeOnCycles) {
  auto m = progen::build_chstone_like("adpcm");
  rl::EnvConfig cfg;
  cfg.observation = rl::ObservationMode::kActionHistogram;
  rl::PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  env.step({static_cast<std::size_t>(pass_id("-mem2reg"))});
  env.step({static_cast<std::size_t>(pass_id("-simplifycfg"))});
  const std::uint64_t via_env = env.current_cycles();
  const std::uint64_t via_facade =
      core::cycles_with_sequence(*m, {pass_id("-mem2reg"), pass_id("-simplifycfg")});
  EXPECT_EQ(via_env, via_facade);
}

TEST(Integration, RandomProgramsSurviveO3WithSemantics) {
  for (int seed = 100; seed < 108; ++seed) {
    auto m = progen::generate_filtered_program(static_cast<std::uint64_t>(seed));
    const auto before = interp::run_module(*m);
    ASSERT_TRUE(before.is_ok());
    passes::run_o3(*m);
    ASSERT_TRUE(ir::verify_module(*m).is_ok()) << "seed " << seed;
    const auto after = interp::run_module(*m);
    ASSERT_TRUE(after.is_ok()) << "seed " << seed;
    EXPECT_EQ(before.value().return_value, after.value().return_value) << "seed " << seed;
    EXPECT_EQ(before.value().memory_checksum, after.value().memory_checksum)
        << "seed " << seed;
  }
}

TEST(Integration, FingerprintInvariantUnderClone) {
  for (int seed = 1; seed < 6; ++seed) {
    auto m = progen::generate_filtered_program(static_cast<std::uint64_t>(seed));
    auto copy = ir::clone_module(*m);
    EXPECT_EQ(ir::module_fingerprint(*m), ir::module_fingerprint(*copy));
  }
}

}  // namespace
}  // namespace autophase
