#include "core/autophase.hpp"

#include "hls/verilog.hpp"
#include "ir/clone.hpp"
#include "passes/pipelines.hpp"
#include "rl/env.hpp"
#include "runtime/eval_service.hpp"

namespace autophase::core {

namespace {

/// Cycles of `m` under the default constraints, on a service of its own.
std::uint64_t measure_cycles(const ir::Module& m) {
  return runtime::EvalService().measure(m).cycles;
}

}  // namespace

std::uint64_t o0_cycles(const ir::Module& program) { return measure_cycles(program); }

std::uint64_t o3_cycles(const ir::Module& program) {
  auto working = ir::clone_module(program);
  passes::run_o3(*working);
  return measure_cycles(*working);
}

std::uint64_t cycles_with_sequence(const ir::Module& program, const std::vector<int>& sequence) {
  auto working = ir::clone_module_for_rollout(program);
  passes::apply_pass_sequence(*working, sequence);
  return measure_cycles(*working);
}

AutoPhaseResult optimize_program(const ir::Module& program, const AutoPhaseOptions& options) {
  rl::EnvConfig env_config = options.env;
  if (env_config.observation == rl::ObservationMode::kProgramFeatures &&
      options.env.feature_subset.empty() && options.env.action_subset.empty()) {
    // Default formulation: RL-PPO2 (action histogram), the most
    // sample-efficient single-program setting in Fig. 7.
    env_config.observation = rl::ObservationMode::kActionHistogram;
  }
  rl::PhaseOrderEnv env({&program}, env_config);

  rl::PpoConfig ppo = options.ppo;
  ppo.seed = options.seed;
  rl::PpoTrainer trainer(env, ppo);
  trainer.train();

  AutoPhaseResult result;
  result.o0_cycles = env.baseline_cycles(0);
  result.o3_cycles = o3_cycles(program);
  result.best_cycles = env.best_cycles(0);
  result.best_sequence = env.best_sequence(0);
  result.samples = env.samples();
  for (const int p : result.best_sequence) {
    result.pass_names.emplace_back(passes::PassRegistry::instance().name(p));
  }
  auto optimised = ir::clone_module(program);
  passes::apply_pass_sequence(*optimised, result.best_sequence);
  result.rtl = hls::emit_verilog_module(*optimised);
  return result;
}

}  // namespace autophase::core
