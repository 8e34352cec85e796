// google-benchmark microbenchmarks of the substrate itself: the components
// on AutoPhase's critical path (Fig. 4 block diagram) — IR cloning, feature
// extraction, HLS scheduling, cycle profiling, pass application, module
// fingerprinting — the end-to-end environment step, the dense kernels under
// the policy network, and one PPO minibatch of network work.
#include <benchmark/benchmark.h>

#include "features/features.hpp"
#include "hls/cycle_estimator.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "ir/clone.hpp"
#include "ir/loop_info.hpp"
#include "ir/printer.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "passes/pass.hpp"
#include "passes/pipelines.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "rl/env.hpp"
#include "serve/module_codec.hpp"

namespace {

using namespace autophase;

void BM_CloneModule(benchmark::State& state) {
  auto m = progen::build_chstone_like("gsm");
  for (auto _ : state) {
    auto copy = ir::clone_module(*m);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_CloneModule);

void BM_ExtractFeatures(benchmark::State& state) {
  auto m = progen::build_chstone_like("gsm");
  for (auto _ : state) {
    auto fv = features::extract_features(*m);
    benchmark::DoNotOptimize(fv);
  }
}
BENCHMARK(BM_ExtractFeatures);

void BM_ScheduleModule(benchmark::State& state) {
  auto m = progen::build_chstone_like("matmul");
  for (auto _ : state) {
    auto sched = hls::schedule_module(*m);
    benchmark::DoNotOptimize(sched);
  }
}
BENCHMARK(BM_ScheduleModule);

void BM_InterpretAndProfile(benchmark::State& state) {
  auto m = progen::build_chstone_like("matmul");
  for (auto _ : state) {
    auto r = interp::run_module(*m);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_InterpretAndProfile);

// A ~10-instruction program, so what it measures is the fixed cost of one
// cold run_module call (bytecode set-up, arena hand-over, profile), which
// BM_InterpretAndProfile spreads over ~10k instructions.
void BM_InterpretTinyProgram(benchmark::State& state) {
  ir::Module m("tiny");
  ir::Function* f = m.create_function("main", ir::Type::i32(), {});
  ir::IRBuilder b(m);
  b.set_insert_point(f->create_block("entry"));
  ir::Value* p = b.alloca_array(ir::Type::i32(), 4, "p");
  b.store(m.get_i32(20), p);
  ir::Value* q = b.gep(p, m.get_i64(3));
  b.store(m.get_i32(22), q);
  ir::Value* sum = b.add(b.load(p), b.load(q));
  b.ret(b.mul(sum, m.get_i32(2)));
  for (auto _ : state) {
    auto r = interp::run_module(m);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_InterpretTinyProgram);

void BM_CycleEstimateEndToEnd(benchmark::State& state) {
  auto m = progen::build_chstone_like("matmul");
  for (auto _ : state) {
    auto est = hls::profile_cycles(*m);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_CycleEstimateEndToEnd);

/// Reports the printed text's bytes per second: the fingerprint and the
/// printer walk the same bytes, and plain FNV-1a over them is the floor.
void report_text_bytes(benchmark::State& state, const ir::Module& m) {
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ir::print_module(m).size()));
}

/// A seeded corpus program of the size train_ppo and serve_mix key: the
/// first generate_filtered_program draw with 1500..3000 instructions and
/// blocks.
std::unique_ptr<ir::Module> corpus_program() {
  for (std::uint64_t seed = 1;; ++seed) {
    auto m = progen::generate_filtered_program(seed);
    const std::uint64_t size = ir::module_ir_size(*m);
    if (size >= 1500 && size <= 3000) return m;
  }
}

void BM_CloneModuleCorpus(benchmark::State& state) {
  const auto m = corpus_program();
  for (auto _ : state) {
    auto copy = ir::clone_module(*m);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_CloneModuleCorpus)->Unit(benchmark::kMicrosecond);

void BM_ModuleFingerprint(benchmark::State& state) {
  auto m = progen::build_chstone_like("gsm");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ir::module_fingerprint(*m));
  }
  report_text_bytes(state, *m);
}
BENCHMARK(BM_ModuleFingerprint)->Unit(benchmark::kMicrosecond);

void BM_ModuleFingerprintCorpus(benchmark::State& state) {
  const auto m = corpus_program();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ir::module_fingerprint(*m));
  }
  report_text_bytes(state, *m);
}
BENCHMARK(BM_ModuleFingerprintCorpus)->Unit(benchmark::kMicrosecond);

void BM_PrintModule(benchmark::State& state) {
  const auto m = corpus_program();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ir::print_module(*m));
  }
  report_text_bytes(state, *m);
}
BENCHMARK(BM_PrintModule)->Unit(benchmark::kMicrosecond);

/// A fresh DominatorTree and LoopInfo for every function of the corpus
/// program: what one analysis-cache miss costs per function, summed.
void BM_CfgAnalysesCorpus(benchmark::State& state) {
  const auto m = corpus_program();
  for (auto _ : state) {
    for (ir::Function* f : m->functions()) {
      const ir::DominatorTree dt(*f);
      const ir::LoopInfo li(*f, dt);
      benchmark::DoNotOptimize(li.top_level().size());
    }
  }
}
BENCHMARK(BM_CfgAnalysesCorpus)->Unit(benchmark::kMicrosecond);

/// The cycle profiler on the corpus program, whose run enters a fraction of
/// its blocks: the cold-miss cost of an EvalService lookup on a corpus-band
/// program (interpret, schedule what ran, area).
void BM_ProfileCyclesCorpus(benchmark::State& state) {
  const auto m = corpus_program();
  for (auto _ : state) {
    auto est = hls::profile_cycles(*m);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_ProfileCyclesCorpus)->Unit(benchmark::kMicrosecond);

/// The module codec's encoder on the corpus program (the wire form of a
/// remote compile request).
void BM_SerializeModuleCorpus(benchmark::State& state) {
  const auto m = corpus_program();
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::serialize_module(*m));
  }
}
BENCHMARK(BM_SerializeModuleCorpus)->Unit(benchmark::kMicrosecond);

void BM_PassMem2Reg(benchmark::State& state) {
  auto original = progen::build_chstone_like("gsm");
  for (auto _ : state) {
    state.PauseTiming();
    auto m = ir::clone_module(*original);
    state.ResumeTiming();
    passes::apply_pass(*m, passes::PassRegistry::instance().index_of("-mem2reg"));
  }
}
BENCHMARK(BM_PassMem2Reg);

void BM_O3Pipeline(benchmark::State& state) {
  auto original = progen::build_chstone_like("gsm");
  for (auto _ : state) {
    state.PauseTiming();
    auto m = ir::clone_module(*original);
    state.ResumeTiming();
    passes::run_o3(*m);
  }
}
BENCHMARK(BM_O3Pipeline);

/// Sets the per-iteration counts of the dominator trees and loop infos the
/// analysis cache built on this thread since `before`.
void report_cfg_analysis_builds(benchmark::State& state, const ir::CfgAnalysisBuilds& before) {
  const ir::CfgAnalysisBuilds after = ir::cfg_analysis_builds();
  const auto per_iteration = [](std::uint64_t n) {
    return benchmark::Counter(static_cast<double>(n), benchmark::Counter::kAvgIterations);
  };
  state.counters["dom_builds"] = per_iteration(after.dominator_trees - before.dominator_trees);
  state.counters["loop_builds"] = per_iteration(after.loop_infos - before.loop_infos);
}

/// eval_search's unit of work: one seeded random 45-pass sequence applied to
/// a rollout clone of a kernel.
void BM_PassSequence45(benchmark::State& state) {
  const auto kernel = progen::build_chstone_like("gsm");
  Rng rng(1);
  std::vector<int> sequence(45);
  for (int& pass : sequence) pass = static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1));
  const ir::CfgAnalysisBuilds before = ir::cfg_analysis_builds();
  for (auto _ : state) {
    auto m = ir::clone_module_for_rollout(*kernel);
    benchmark::DoNotOptimize(passes::apply_pass_sequence(*m, sequence));
  }
  report_cfg_analysis_builds(state, before);
}
BENCHMARK(BM_PassSequence45)->Unit(benchmark::kMicrosecond);

/// A loop pass that finds nothing to do: -loop-deletion, twice per
/// iteration, on an -O3-optimised kernel it has already run on.
void BM_NoopLoopPass(benchmark::State& state) {
  auto m = progen::build_chstone_like("gsm");
  passes::run_o3(*m);
  const int loop_deletion = passes::PassRegistry::instance().index_of("-loop-deletion");
  passes::apply_pass(*m, loop_deletion);
  const ir::CfgAnalysisBuilds before = ir::cfg_analysis_builds();
  for (auto _ : state) {
    benchmark::DoNotOptimize(passes::apply_pass(*m, loop_deletion));
    benchmark::DoNotOptimize(passes::apply_pass(*m, loop_deletion));
  }
  report_cfg_analysis_builds(state, before);
}
BENCHMARK(BM_NoopLoopPass)->Unit(benchmark::kMicrosecond);

void BM_RandomProgramGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto m = progen::generate_filtered_program(seed++);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_RandomProgramGeneration);

void BM_EnvStep(benchmark::State& state) {
  auto m = progen::build_chstone_like("sha");
  rl::EnvConfig cfg;
  cfg.observation = rl::ObservationMode::kBoth;
  rl::PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  std::size_t action = 0;
  int steps = 0;
  for (auto _ : state) {
    const auto r = env.step({action % env.action_arity()});
    ++action;
    if (r.done || ++steps >= 44) {
      steps = 0;
      state.PauseTiming();
      env.reset();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(r.reward);
  }
}
BENCHMARK(BM_EnvStep);

/// Ablation (DESIGN.md §5.2): evaluation caching. Steps replay the same
/// prefix constantly; the fingerprint cache turns most of them into hits.
void BM_EnvStepCacheCold(benchmark::State& state) {
  auto m = progen::build_chstone_like("sha");
  Rng rng(7);
  rl::EnvConfig cfg;
  for (auto _ : state) {
    state.PauseTiming();
    rl::PhaseOrderEnv env({m.get()}, cfg);  // fresh cache each episode
    env.reset();
    state.ResumeTiming();
    for (int i = 0; i < 8; ++i) {
      env.step({static_cast<std::size_t>(rng.uniform_int(0, 44))});
    }
  }
}
BENCHMARK(BM_EnvStepCacheCold);

/// The dense kernels at the policy network's hidden shape (256x256 weights).
/// rows:1 is a one-observation forward (serving's greedy decode), rows:4 a
/// beam front, rows:64 a PPO minibatch. The Tn and Nt variants are the
/// backward pass's weight and input gradients at the minibatch shape.
void BM_Matmul(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const ml::Matrix x = ml::Matrix::randn(rng, rows, 256, 1.0);
  const ml::Matrix w = ml::Matrix::randn(rng, 256, 256, 0.0625);
  for (auto _ : state) {
    const ml::Matrix out = ml::matmul(x, w);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_Matmul)->ArgName("rows")->Arg(1)->Arg(4)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_MatmulTn(benchmark::State& state) {
  Rng rng(3);
  const ml::Matrix input = ml::Matrix::randn(rng, 64, 256, 1.0);
  const ml::Matrix grad = ml::Matrix::randn(rng, 64, 256, 1.0);
  for (auto _ : state) {
    const ml::Matrix out = ml::matmul_tn(input, grad);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_MatmulTn)->Unit(benchmark::kMicrosecond);

void BM_MatmulNt(benchmark::State& state) {
  Rng rng(3);
  const ml::Matrix grad = ml::Matrix::randn(rng, 64, 256, 1.0);
  const ml::Matrix w = ml::Matrix::randn(rng, 256, 256, 0.0625);
  for (auto _ : state) {
    const ml::Matrix out = ml::matmul_nt(grad, w);
    benchmark::DoNotOptimize(out.data().data());
  }
}
BENCHMARK(BM_MatmulNt)->Unit(benchmark::kMicrosecond);

/// One PPO minibatch of one network at perfbench's train_ppo shape: forward
/// with a cache, then backward, over 64 observations of the paper's env
/// (episode length 45, features plus histogram, as perfbench's
/// paper_env_config()) through 256x256 hidden layers. value:0 is the policy
/// net (one logit per pass), value:1 the value net. A PPO update runs each
/// epochs x minibatches = 4 x 4 times per iteration.
void BM_MlpForwardBackward(benchmark::State& state) {
  constexpr std::size_t kMinibatch = 64;
  auto m = progen::build_chstone_like("sha");
  rl::EnvConfig cfg;
  cfg.episode_length = 45;
  cfg.observation = rl::ObservationMode::kBoth;
  rl::PhaseOrderEnv env({m.get()}, cfg);
  ml::MlpConfig shape;
  shape.input = env.observation_size();
  shape.hidden = {256, 256};
  shape.output = state.range(0) == 0 ? env.action_arity() : 1;
  Rng rng(1);
  const ml::Mlp net(shape, rng);
  // Real observations, so the first layer sees the histogram's zeros.
  ml::Matrix obs(kMinibatch, shape.input);
  std::vector<double> o = env.reset();
  for (std::size_t r = 0; r < kMinibatch; ++r) {
    std::copy(o.begin(), o.end(), obs.row(r));
    const auto step = env.step({static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(env.action_arity()) - 1))});
    o = step.done ? env.reset() : step.observation;
  }
  const ml::Matrix grad_output = ml::Matrix::randn(rng, kMinibatch, shape.output, 1.0);
  for (auto _ : state) {
    ml::ForwardCache cache;
    const ml::Matrix out = net.forward(obs, &cache);
    ml::Gradients grads = net.make_gradients();
    net.backward(cache, grad_output, grads);
    benchmark::DoNotOptimize(grads.weights[0].data().data());
  }
}
BENCHMARK(BM_MlpForwardBackward)->ArgName("value")->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
