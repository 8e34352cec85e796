// Ablation studies for the design decisions called out in DESIGN.md §5:
//  1. Cycle estimator: LegUp-style states x dynamic block counts vs a purely
//     static FSM-size metric. Static-only inverts judgments on loop
//     transforms (unrolling grows the FSM but shrinks execution).
//  2. Operation chaining under the 200 MHz clock: without chaining, every
//     combinational op needs its own state, inflating cycle counts and
//     erasing simplifycfg/if-conversion wins.
//  3. Evaluation cache: fraction of environment steps served without a
//     simulator call during a PPO run (the paper's sample-efficiency story
//     depends on the simulator being the scarce resource).
#include "bench/bench_util.hpp"
#include "core/autophase.hpp"
#include "hls/cycle_estimator.hpp"
#include "ir/clone.hpp"
#include "passes/pass.hpp"
#include "passes/pipelines.hpp"
#include "rl/ppo.hpp"

namespace {

using namespace autophase;

std::uint64_t static_states_only(const ir::Module& m) {
  const auto sched = hls::schedule_module(m);
  std::uint64_t total = 0;
  for (const auto& fs : sched.functions) total += static_cast<std::uint64_t>(fs.total_states);
  return total;
}

std::uint64_t cycles_no_chaining(const ir::Module& m) {
  // A 1 ns clock leaves no room to chain anything: every op gets its own
  // state, modelling a scheduler without chaining.
  hls::ResourceConstraints rc;
  rc.clock_period_ns = 1.0;
  auto est = hls::profile_cycles(m, rc);
  return est.is_ok() ? est.value().cycles : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  (void)args;

  std::printf("Ablation 1: dynamic-profile estimator vs static FSM size\n");
  TextTable t1({"benchmark", "O3 speedup (dyn est.)", "O3 'speedup' (static only)",
                "unroll verdict dyn", "unroll verdict static"});
  const int unroll_prep[] = {
      passes::PassRegistry::instance().index_of("-mem2reg"),
      passes::PassRegistry::instance().index_of("-loop-simplify"),
      passes::PassRegistry::instance().index_of("-loop-rotate"),
      passes::PassRegistry::instance().index_of("-loop-unroll"),
  };
  for (const auto& name : progen::chstone_benchmark_names()) {
    auto o0 = progen::build_chstone_like(name);
    auto o3 = ir::clone_module(*o0);
    passes::run_o3(*o3);
    const double dyn_speedup = static_cast<double>(core::o0_cycles(*o0)) /
                               static_cast<double>(core::o3_cycles(*o0));
    const double static_speedup = static_cast<double>(static_states_only(*o0)) /
                                  static_cast<double>(static_states_only(*o3));
    // Unroll verdict: does each metric consider rotate+unroll an improvement?
    auto unrolled = ir::clone_module(*o0);
    auto prepped = ir::clone_module(*o0);
    for (int i = 0; i < 3; ++i) passes::apply_pass(*prepped, unroll_prep[i]);
    for (int i = 0; i < 4; ++i) passes::apply_pass(*unrolled, unroll_prep[i]);
    const bool dyn_likes = core::cycles_with_sequence(*o0, {unroll_prep[0], unroll_prep[1],
                                                            unroll_prep[2], unroll_prep[3]}) <
                           core::cycles_with_sequence(*o0, {unroll_prep[0], unroll_prep[1],
                                                            unroll_prep[2]});
    const bool static_likes = static_states_only(*unrolled) < static_states_only(*prepped);
    t1.add_row({name, strf("%.2fx", dyn_speedup), strf("%.2fx", static_speedup),
                dyn_likes ? "improves" : "neutral/worse",
                static_likes ? "improves" : "neutral/worse"});
  }
  std::printf("%s\n", t1.render().c_str());

  std::printf("Ablation 2: operation chaining at 200 MHz vs no chaining\n");
  TextTable t2({"benchmark", "cycles (chained)", "cycles (no chaining)", "inflation"});
  for (const auto& name : progen::chstone_benchmark_names()) {
    auto m = progen::build_chstone_like(name);
    passes::run_o3(*m);
    const auto chained = hls::profile_cycles(*m);
    const std::uint64_t unchained = cycles_no_chaining(*m);
    if (!chained.is_ok() || unchained == 0) continue;
    t2.add_row({name, std::to_string(chained.value().cycles), std::to_string(unchained),
                strf("%.2fx", static_cast<double>(unchained) /
                                  static_cast<double>(chained.value().cycles))});
  }
  std::printf("%s\n", t2.render().c_str());

  std::printf("Ablation 3: evaluation-cache effectiveness during PPO training\n");
  {
    auto m = progen::build_chstone_like("gsm");
    rl::EnvConfig cfg;
    cfg.observation = rl::ObservationMode::kActionHistogram;
    rl::PhaseOrderEnv env({m.get()}, cfg);
    rl::PpoConfig ppo;
    ppo.iterations = 6;
    ppo.steps_per_iteration = 135;
    rl::PpoTrainer trainer(env, ppo);
    trainer.train();
    const std::size_t steps = 6 * 135;
    std::printf("  env steps: %zu, simulator calls: %zu, cache hit rate: %.0f%%\n", steps,
                env.samples(),
                100.0 * (1.0 - static_cast<double>(env.samples()) /
                                   static_cast<double>(steps)));
  }
  return 0;
}
