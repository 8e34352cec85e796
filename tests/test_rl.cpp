#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>

#include "ir/clone.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "rl/a3c.hpp"
#include "rl/env.hpp"
#include "rl/es.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "support/rng.hpp"

namespace autophase::rl {
namespace {

TEST(Gae, MatchesHandComputedValues) {
  RolloutBuffer buf;
  // Two transitions, gamma=1, lambda=1 => advantages are MC returns - V.
  Transition t1;
  t1.reward = 1.0;
  t1.value = 0.5;
  Transition t2;
  t2.reward = 2.0;
  t2.value = 0.25;
  t2.done = true;
  buf.transitions = {t1, t2};
  buf.compute_gae(1.0, 1.0, 123.0 /* ignored: last is terminal */);
  EXPECT_NEAR(buf.returns[1], 2.0, 1e-12);
  EXPECT_NEAR(buf.advantages[1], 2.0 - 0.25, 1e-12);
  EXPECT_NEAR(buf.returns[0], 3.0, 1e-12);
  EXPECT_NEAR(buf.advantages[0], 3.0 - 0.5, 1e-12);
}

TEST(Gae, BootstrapsNonTerminalTail) {
  RolloutBuffer buf;
  Transition t;
  t.reward = 1.0;
  t.value = 0.0;
  t.done = false;
  buf.transitions = {t};
  buf.compute_gae(0.5, 1.0, 10.0);
  EXPECT_NEAR(buf.returns[0], 1.0 + 0.5 * 10.0, 1e-12);
}

TEST(Gae, NormalizeAdvantages) {
  RolloutBuffer buf;
  for (int i = 0; i < 4; ++i) {
    Transition t;
    t.reward = i;
    t.done = true;
    buf.transitions.push_back(t);
  }
  buf.compute_gae(0.99, 0.95, 0.0);
  buf.normalize_advantages();
  double mean = 0;
  for (const double a : buf.advantages) mean += a;
  EXPECT_NEAR(mean / 4, 0.0, 1e-9);
}

TEST(Env, ObservationShapes) {
  auto m = progen::build_chstone_like("sha");
  {
    EnvConfig cfg;
    cfg.observation = ObservationMode::kProgramFeatures;
    PhaseOrderEnv env({m.get()}, cfg);
    EXPECT_EQ(env.observation_size(), 56u);
    EXPECT_EQ(env.action_arity(), 45u);
    EXPECT_EQ(env.reset().size(), 56u);
  }
  {
    EnvConfig cfg;
    cfg.observation = ObservationMode::kActionHistogram;
    PhaseOrderEnv env({m.get()}, cfg);
    EXPECT_EQ(env.observation_size(), 45u);
  }
  {
    EnvConfig cfg;
    cfg.observation = ObservationMode::kBoth;
    cfg.include_terminate = true;
    PhaseOrderEnv env({m.get()}, cfg);
    EXPECT_EQ(env.action_arity(), 46u);
    EXPECT_EQ(env.observation_size(), 56u + 46u);
  }
}

TEST(Env, FilteredSpaces) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  cfg.observation = ObservationMode::kBoth;
  cfg.feature_subset = {0, 17, 51};
  cfg.action_subset = {23, 33, 38};  // rotate, unroll, mem2reg
  PhaseOrderEnv env({m.get()}, cfg);
  EXPECT_EQ(env.action_arity(), 3u);
  EXPECT_EQ(env.observation_size(), 3u + 3u);
}

TEST(Env, RewardIsCycleImprovement) {
  auto m = progen::build_chstone_like("gsm");
  EnvConfig cfg;
  cfg.observation = ObservationMode::kActionHistogram;
  PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  const std::uint64_t before = env.current_cycles();
  // -mem2reg is Table-1 index 38 and a huge win on -O0 IR.
  const StepResult r = env.step({38});
  const std::uint64_t after = env.current_cycles();
  EXPECT_LT(after, before);
  EXPECT_NEAR(r.reward, static_cast<double>(before) - static_cast<double>(after), 1e-9);
  EXPECT_FALSE(r.done);
}

TEST(Env, EpisodeEndsAtLength) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  cfg.episode_length = 3;
  PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  EXPECT_FALSE(env.step({0}).done);
  EXPECT_FALSE(env.step({1}).done);
  EXPECT_TRUE(env.step({2}).done);
}

TEST(Env, TerminateActionEndsEpisode) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  cfg.include_terminate = true;
  PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  const StepResult r = env.step({45});  // the terminate pseudo-action
  EXPECT_TRUE(r.done);
}

TEST(Env, BestTrackingAndCaching) {
  auto m = progen::build_chstone_like("gsm");
  EnvConfig cfg;
  cfg.observation = ObservationMode::kActionHistogram;
  cfg.episode_length = 4;
  PhaseOrderEnv env({m.get()}, cfg);
  env.reset();
  env.step({38});
  env.step({31});
  const std::size_t samples_first = env.samples();
  // Replay the same episode: every evaluation should be a cache hit.
  env.reset();
  env.step({38});
  env.step({31});
  EXPECT_EQ(env.samples(), samples_first);
  EXPECT_LT(env.best_cycles(0), env.baseline_cycles(0));
  EXPECT_EQ(env.best_sequence(0).size(), 2u);
}

TEST(Env, InferenceModeUsesNoSamples) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  PhaseOrderEnv env({m.get()}, cfg);
  env.set_inference_mode(true);
  env.reset();
  for (int i = 0; i < 10; ++i) env.step({static_cast<std::size_t>(i % 45)});
  EXPECT_EQ(env.samples(), 0u);
}

TEST(Env, MultiProgramRoundRobin) {
  auto a = progen::build_chstone_like("sha");
  auto b = progen::build_chstone_like("gsm");
  EnvConfig cfg;
  PhaseOrderEnv env({a.get(), b.get()}, cfg);
  env.reset();
  EXPECT_EQ(env.current_program(), 0u);
  env.reset();
  EXPECT_EQ(env.current_program(), 1u);
  env.reset();
  EXPECT_EQ(env.current_program(), 0u);
}

// ---------------------------------------------------------------------------
// Incremental env steps equal a from-scratch reference
// ---------------------------------------------------------------------------

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  }
  return true;
}

/// The reward EnvConfig documents for a cycle decrease, restated here so the
/// reference shares no code with the env.
double reference_reward(double delta, const EnvConfig& cfg) {
  if (cfg.zero_rewards) return 0.0;
  if (!cfg.log_reward) return delta;
  return delta >= 0 ? std::log1p(delta) : -std::log1p(-delta);
}

// Every step of a PhaseOrderEnv must answer exactly what re-deriving it from
// scratch answers: the pass applied to a separate clone, the cycles looked up
// on a fresh EvalService, the observation built anew. Seeded random action
// streams hit many no-op passes. The second lap of episodes starts in
// inference mode and leaves it partway, after passes that changed the module.
// The env's reward delta is measured against the last cycles it measured, even
// across resets and inference stretches; the reference keeps that rule.
TEST(IncrementalEnv, StepsEqualFromScratch) {
  std::vector<std::unique_ptr<ir::Module>> owned;
  for (const std::string& name : progen::chstone_benchmark_names()) {
    owned.push_back(progen::build_chstone_like(name));
  }
  for (const std::uint64_t seed : {11u, 12u}) {
    owned.push_back(progen::generate_filtered_program(seed));
  }
  std::vector<const ir::Module*> programs;
  for (const auto& m : owned) programs.push_back(m.get());
  std::vector<int> all_features(static_cast<std::size_t>(features::kNumFeatures));
  std::iota(all_features.begin(), all_features.end(), 0);
  // Changes every -O0 program; applied twice in a row, the second is a no-op.
  const std::size_t mem2reg =
      static_cast<std::size_t>(passes::PassRegistry::instance().index_of("-mem2reg"));

  int config_index = 0;
  for (const ObservationMode observation :
       {ObservationMode::kProgramFeatures, ObservationMode::kActionHistogram,
        ObservationMode::kBoth}) {
    for (const NormalizationMode normalization :
         {NormalizationMode::kNone, NormalizationMode::kLog,
          NormalizationMode::kInstCountRatio}) {
      EnvConfig cfg;
      cfg.episode_length = 10;
      cfg.observation = observation;
      cfg.normalization = normalization;
      cfg.include_terminate = config_index % 2 == 1;
      cfg.log_reward = config_index % 3 == 0;
      SCOPED_TRACE("config " + std::to_string(config_index));
      PhaseOrderEnv env(programs, cfg);
      runtime::EvalService reference_eval;
      Rng rng(static_cast<std::uint64_t>(config_index) + 1);
      const std::size_t arity = env.action_arity();
      std::uint64_t prev = 0;
      std::vector<std::uint64_t> best(programs.size(), ~0ull);
      std::vector<std::vector<int>> best_sequence(programs.size());

      for (std::size_t episode = 0; episode < 2 * programs.size(); ++episode) {
        const std::size_t p = episode % programs.size();
        SCOPED_TRACE("episode " + std::to_string(episode));
        bool inference = episode >= programs.size();
        env.set_inference_mode(inference);
        const std::vector<double> first = env.reset();
        ASSERT_EQ(env.current_program(), p);
        auto module = ir::clone_module(*programs[p]);
        std::vector<double> histogram(arity, 0.0);
        std::vector<int> applied;
        const auto measure = [&] {
          const std::uint64_t cycles = reference_eval.measure(*module).cycles;
          if (cycles < best[p]) {
            best[p] = cycles;
            best_sequence[p] = applied;
          }
          return cycles;
        };
        if (!inference) prev = measure();
        ASSERT_TRUE(bitwise_equal(first, build_observation(*module, histogram, cfg, all_features)));

        for (int step = 1;; ++step) {
          auto action =
              static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(arity) - 1));
          if (inference && step <= 2) action = mem2reg;
          if (inference && step == 4) {
            inference = false;
            env.set_inference_mode(false);
            action = mem2reg;
          }
          const StepResult got = env.step({action});

          double reward = 0.0;
          const bool terminate = cfg.include_terminate && action + 1 == arity;
          if (!terminate) {
            // Full action space: the RL action is the Table-1 index.
            passes::apply_pass(*module, static_cast<int>(action));
            applied.push_back(static_cast<int>(action));
            histogram[action] += 1.0;
            if (!inference) {
              const std::uint64_t cycles = measure();
              reward = reference_reward(
                  static_cast<double>(prev) - static_cast<double>(cycles), cfg);
              prev = cycles;
            }
          }
          const bool done = terminate || step >= cfg.episode_length;
          SCOPED_TRACE("step " + std::to_string(step));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.reward),
                    std::bit_cast<std::uint64_t>(reward));
          EXPECT_EQ(got.done, done);
          ASSERT_TRUE(bitwise_equal(got.observation,
                                    build_observation(*module, histogram, cfg, all_features)));
          ASSERT_EQ(env.samples(), reference_eval.samples());
          if (done) break;
        }
        EXPECT_EQ(env.best_cycles(p), best[p]);
        EXPECT_EQ(env.best_sequence(p), best_sequence[p]);
      }
      ++config_index;
    }
  }
}

TEST(MultiActionEnv, SequenceAdjustment) {
  auto m = progen::build_chstone_like("sha");
  EnvConfig cfg;
  cfg.episode_length = 45;
  MultiActionEnv env({m.get()}, cfg, 3);
  env.reset();
  EXPECT_EQ(env.action_groups(), 45u);
  EXPECT_EQ(env.action_arity(), 3u);
  // All +1: sequence moves from 22 to 23 everywhere.
  std::vector<std::size_t> up(45, 2);
  const StepResult r = env.step(up);
  EXPECT_FALSE(r.done);
  EXPECT_GT(env.samples(), 0u);
}

TEST(Ppo, LearnsTwoArmedBandit) {
  // A trivial env: action 1 pays 1.0, action 0 pays 0. PPO must find it.
  class BanditEnv final : public Env {
   public:
    std::vector<double> reset() override { return {1.0}; }
    StepResult step(const std::vector<std::size_t>& a) override {
      return {{1.0}, a[0] == 1 ? 1.0 : 0.0, true};
    }
    [[nodiscard]] std::size_t observation_size() const override { return 1; }
    [[nodiscard]] std::size_t action_groups() const override { return 1; }
    [[nodiscard]] std::size_t action_arity() const override { return 2; }
  };
  BanditEnv env;
  PpoConfig cfg;
  cfg.iterations = 30;
  cfg.steps_per_iteration = 64;
  cfg.hidden = {16};
  cfg.seed = 3;
  PpoTrainer trainer(env, cfg);
  const auto stats = trainer.train();
  EXPECT_GT(stats.back().episode_reward_mean, 0.8);  // entropy bonus keeps ~5% exploration
  EXPECT_EQ(trainer.act_greedy({1.0})[0], 1u);
}

TEST(Ppo, ImprovesOnKernelEnv) {
  auto m = progen::build_chstone_like("gsm");
  EnvConfig cfg;
  cfg.observation = ObservationMode::kActionHistogram;
  PhaseOrderEnv env({m.get()}, cfg);
  PpoConfig ppo;
  ppo.iterations = 6;
  ppo.steps_per_iteration = 135;
  ppo.seed = 2;
  PpoTrainer trainer(env, ppo);
  const auto stats = trainer.train();
  // Exploration must find something better than -O0.
  EXPECT_LT(env.best_cycles(0), env.baseline_cycles(0));
  EXPECT_GT(env.samples(), 10u);
  EXPECT_GT(stats.back().env_samples, 0u);
}

TEST(A3c, RunsWorkersAndLearnsBandit) {
  class BanditEnv final : public Env {
   public:
    std::vector<double> reset() override { return {1.0}; }
    StepResult step(const std::vector<std::size_t>& a) override {
      return {{1.0}, a[0] == 1 ? 1.0 : 0.0, true};
    }
    [[nodiscard]] std::size_t observation_size() const override { return 1; }
    [[nodiscard]] std::size_t action_groups() const override { return 1; }
    [[nodiscard]] std::size_t action_arity() const override { return 2; }
  };
  std::vector<std::unique_ptr<BanditEnv>> envs;
  std::mutex mu;
  A3cConfig cfg;
  cfg.workers = 3;
  cfg.total_steps = 1500;
  cfg.hidden = {16};
  A3cTrainer trainer(
      [&]() {
        const std::lock_guard<std::mutex> lock(mu);
        envs.push_back(std::make_unique<BanditEnv>());
        return envs.back().get();
      },
      cfg);
  const double tail_reward = trainer.train();
  EXPECT_GT(tail_reward, 0.8);
  EXPECT_EQ(trainer.act_greedy({1.0})[0], 1u);
}

TEST(Es, ImprovesBanditFitness) {
  class BanditEnv final : public Env {
   public:
    std::vector<double> reset() override { return {1.0}; }
    StepResult step(const std::vector<std::size_t>& a) override {
      return {{1.0}, a[0] == 1 ? 1.0 : 0.0, true};
    }
    [[nodiscard]] std::size_t observation_size() const override { return 1; }
    [[nodiscard]] std::size_t action_groups() const override { return 1; }
    [[nodiscard]] std::size_t action_arity() const override { return 2; }
  };
  BanditEnv env;
  EsConfig cfg;
  cfg.iterations = 30;
  cfg.population_pairs = 6;
  cfg.hidden = {8};
  cfg.seed = 5;
  EsTrainer trainer(env, cfg);
  trainer.train();
  EXPECT_EQ(trainer.act_greedy({1.0})[0], 1u);
}

}  // namespace
}  // namespace autophase::rl
