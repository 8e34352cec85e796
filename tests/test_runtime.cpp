#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "passes/pass.hpp"
#include "progen/chstone_like.hpp"
#include "rl/a3c.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "runtime/eval_service.hpp"
#include "runtime/vec_env.hpp"
#include "search/evaluator.hpp"
#include "search/search.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"

namespace autophase::runtime {
namespace {

// ---------------------------------------------------------------------------
// EvalService
// ---------------------------------------------------------------------------

TEST(EvalService, CountsUniqueModuleExactlyOnceUnderContention) {
  auto m = progen::build_chstone_like("sha");
  EvalServiceConfig cfg;
  cfg.shards = 1;  // force every thread onto one shard
  EvalService service(cfg);
  ThreadPool pool(8);
  constexpr std::size_t kCalls = 64;
  std::vector<std::uint64_t> results(kCalls, 0);
  pool.parallel_for(kCalls, [&](std::size_t i) { results[i] = service.measure(*m).cycles; });
  for (const std::uint64_t r : results) EXPECT_EQ(r, results[0]);
  EXPECT_EQ(service.samples(), 1u);
  const EvalStats stats = service.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kCalls - 1);
  EXPECT_GT(stats.eval_nanos, 0u);
}

TEST(EvalService, SampleAttributionIsExactAcrossHandles) {
  // Two callers of one service hammering the same module from different
  // threads: exactly one of them is told its call was the sample.
  auto m = progen::build_chstone_like("qsort");
  auto service = std::make_shared<EvalService>();
  std::array<bool, 2> sampled{};
  ThreadPool pool(2);
  pool.parallel_for(2, [&](std::size_t i) {
    bool was_sample = false;
    service->measure(*m, &was_sample);
    sampled[i] = was_sample;
  });
  EXPECT_EQ(static_cast<int>(sampled[0]) + static_cast<int>(sampled[1]), 1);
  EXPECT_EQ(service->samples(), 1u);
}

TEST(EvalService, BatchMatchesSerialExactly) {
  auto m = progen::build_chstone_like("gsm");
  Rng rng(7);
  std::vector<std::vector<int>> sequences;
  for (int i = 0; i < 24; ++i) sequences.push_back(search::random_sequence(rng, 10));
  // Duplicates exercise both cache layers under contention.
  sequences.push_back(sequences[0]);
  sequences.push_back(sequences[5]);
  sequences.push_back(sequences[0]);

  EvalService serial;
  const auto serial_result = serial.evaluate_batch(*m, sequences);

  ThreadPool pool(8);
  EvalServiceConfig cfg;
  cfg.pool = &pool;
  EvalService parallel(cfg);
  const auto parallel_result = parallel.evaluate_batch(*m, sequences);

  EXPECT_EQ(serial_result.cycles, parallel_result.cycles);
  EXPECT_EQ(serial_result.new_samples, parallel_result.new_samples);
  EXPECT_EQ(serial.samples(), parallel.samples());
  // sequence_hits is best-effort under concurrency (racing duplicates may
  // both miss the sequence layer and be deduped one layer down), so it can
  // only be <= the serial count; the sample count above is always exact.
  EXPECT_LE(parallel.stats().sequence_hits, serial.stats().sequence_hits);
}

TEST(EvalService, SequenceKeySkipsPassReapplication) {
  auto m = progen::build_chstone_like("sha");
  EvalService service;
  const std::vector<int> seq = {38, 31, 0};
  const std::uint64_t fingerprint = ir::module_fingerprint(*m);
  const std::uint64_t first = service.evaluate_sequence(*m, fingerprint, seq);
  const std::size_t samples_after_first = service.samples();
  const std::uint64_t second = service.evaluate_sequence(*m, fingerprint, seq);
  EXPECT_EQ(first, second);
  EXPECT_EQ(service.samples(), samples_after_first);
  const EvalStats stats = service.stats();
  EXPECT_EQ(stats.sequence_hits, 1u);
  // The repeat short-circuits before the module layer: no extra module hit.
  EXPECT_EQ(stats.hits, 0u);
}

TEST(EvalService, ShardStatsSumToAggregate) {
  EvalServiceConfig cfg;
  cfg.shards = 8;
  EvalService service(cfg);
  for (const auto& name : {"sha", "gsm", "qsort"}) {
    auto m = progen::build_chstone_like(name);
    const std::uint64_t fingerprint = ir::module_fingerprint(*m);
    service.evaluate_sequence(*m, fingerprint, {38});
    service.evaluate_sequence(*m, fingerprint, {38});  // sequence hit
    service.measure(*m);
  }
  EvalStats summed;
  for (std::size_t s = 0; s < service.shard_count(); ++s) summed += service.shard_stats(s);
  const EvalStats total = service.stats();
  EXPECT_EQ(summed.hits, total.hits);
  EXPECT_EQ(summed.misses, total.misses);
  EXPECT_EQ(summed.sequence_hits, total.sequence_hits);
  EXPECT_EQ(summed.eval_nanos, total.eval_nanos);
  EXPECT_EQ(total.sequence_hits, 3u);
}

TEST(EvalService, MeasureCarriesIrSizeEvenForPrimedEntries) {
  auto m = progen::build_chstone_like("sha");
  const std::uint64_t expected_size = ir::module_ir_size(*m);
  ASSERT_GT(expected_size, 0u);

  EvalService service;
  const Measure measured = service.measure(*m);
  EXPECT_EQ(measured.ir_size, expected_size);
  // Hits agree with the miss that populated them.
  EXPECT_EQ(service.measure(*m).ir_size, expected_size);

  // Primed entries predate ir_size (artifact baselines carry cycles + area
  // only): a materialised lookup recomputes it instead of trusting the cache.
  auto other = progen::build_chstone_like("gsm");
  const std::uint64_t other_fp = ir::module_fingerprint(*other);
  EvalService primed;
  ASSERT_TRUE(primed.prime(other_fp, {1234, 1.5, 0}));
  bool sampled = true;
  const Measure from_prime = primed.measure(*other, other_fp, &sampled);
  EXPECT_FALSE(sampled);  // the primed entry answered — no simulator call
  EXPECT_EQ(from_prime.cycles, 1234u);
  EXPECT_EQ(from_prime.ir_size, ir::module_ir_size(*other));

  // Optimising a module moves its size; the measurement tracks the module.
  auto clone = ir::clone_module_for_rollout(*m);
  passes::apply_pass_sequence(*clone, {38, 31, 0});
  clone->materialize_all();
  const Measure optimised = service.measure(*clone);
  EXPECT_EQ(optimised.ir_size, ir::module_ir_size(*clone));
}

// ---------------------------------------------------------------------------
// VecEnv
// ---------------------------------------------------------------------------

struct Trajectory {
  std::vector<double> rewards;
  std::vector<std::vector<double>> observations;
};

/// Rolls a fixed number of batched steps with actions drawn from the
/// per-worker RNG streams; this is what "same seed => same trajectories"
/// must pin down for any thread count.
std::vector<Trajectory> roll(VecEnv& vec, int steps) {
  std::vector<Trajectory> out(vec.size());
  auto obs = vec.reset();
  for (std::size_t w = 0; w < vec.size(); ++w) out[w].observations.push_back(obs[w]);
  for (int s = 0; s < steps; ++s) {
    std::vector<std::vector<std::size_t>> actions(vec.size());
    for (std::size_t w = 0; w < vec.size(); ++w) {
      actions[w] = {static_cast<std::size_t>(vec.worker_rng(w).uniform_int(
          0, static_cast<std::int64_t>(vec.action_arity()) - 1))};
    }
    const auto results = vec.step_batch(actions);
    for (std::size_t w = 0; w < vec.size(); ++w) {
      out[w].rewards.push_back(results[w].reward);
      out[w].observations.push_back(results[w].observation);
    }
  }
  return out;
}

VecEnv make_kernel_vec(const std::vector<const ir::Module*>& programs, std::size_t workers,
                       ThreadPool* pool, std::uint64_t seed,
                       std::shared_ptr<EvalService> service = nullptr) {
  VecEnvConfig cfg;
  cfg.num_envs = workers;
  cfg.seed = seed;
  cfg.pool = pool;
  return VecEnv(
      [&](std::size_t, Rng) -> std::unique_ptr<rl::Env> {
        rl::EnvConfig env_cfg;
        env_cfg.observation = rl::ObservationMode::kActionHistogram;
        env_cfg.episode_length = 5;
        env_cfg.eval_service = service;
        return std::make_unique<rl::PhaseOrderEnv>(programs, env_cfg);
      },
      cfg);
}

TEST(VecEnv, SameSeedSameTrajectoriesRegardlessOfWorkerCount) {
  auto m = progen::build_chstone_like("sha");
  const std::vector<const ir::Module*> programs = {m.get()};

  VecEnv serial = make_kernel_vec(programs, 4, nullptr, 11);
  const auto serial_traj = roll(serial, 8);

  ThreadPool pool(4);
  VecEnv parallel = make_kernel_vec(programs, 4, &pool, 11);
  const auto parallel_traj = roll(parallel, 8);

  ASSERT_EQ(serial_traj.size(), parallel_traj.size());
  for (std::size_t w = 0; w < serial_traj.size(); ++w) {
    EXPECT_EQ(serial_traj[w].rewards, parallel_traj[w].rewards) << "worker " << w;
    EXPECT_EQ(serial_traj[w].observations, parallel_traj[w].observations) << "worker " << w;
  }
}

TEST(VecEnv, SharedServiceKeepsSampleCountExact) {
  auto m = progen::build_chstone_like("gsm");
  const std::vector<const ir::Module*> programs = {m.get()};
  auto service = std::make_shared<EvalService>();
  ThreadPool pool(4);
  VecEnv vec = make_kernel_vec(programs, 4, &pool, 3, service);
  roll(vec, 6);
  // Every real simulator call is attributed to exactly one worker handle.
  EXPECT_GT(vec.sample_count(), 0u);
  EXPECT_EQ(vec.sample_count(), service->samples());
}

TEST(VecEnv, AutoResetsFinishedEpisodes) {
  auto m = progen::build_chstone_like("sha");
  const std::vector<const ir::Module*> programs = {m.get()};
  VecEnv vec = make_kernel_vec(programs, 2, nullptr, 1);
  const auto initial = vec.reset();
  std::vector<rl::StepResult> last;
  for (int s = 0; s < 4; ++s) {
    last = vec.step_batch({{0}, {0}});
    EXPECT_FALSE(last[0].done);
  }
  last = vec.step_batch({{0}, {0}});  // 5th step: episode_length reached
  EXPECT_TRUE(last[0].done);
  // The observation already belongs to the next episode.
  EXPECT_EQ(last[0].observation, initial[0]);
}

// ---------------------------------------------------------------------------
// Parallel search baselines
// ---------------------------------------------------------------------------

TEST(ParallelSearch, RandomSearchIdenticalToSerial) {
  auto m = progen::build_chstone_like("sha");
  search::SearchBudget serial_budget;
  serial_budget.max_samples = 80;
  serial_budget.seed = 42;
  search::SearchBudget parallel_budget = serial_budget;
  ThreadPool pool(8);
  parallel_budget.pool = &pool;

  const auto serial = search::random_search(*m, serial_budget);
  const auto parallel = search::random_search(*m, parallel_budget);
  EXPECT_EQ(serial.best_cycles, parallel.best_cycles);
  EXPECT_EQ(serial.best_sequence, parallel.best_sequence);
  EXPECT_EQ(serial.samples, parallel.samples);
}

TEST(ParallelSearch, GeneticSearchIdenticalToSerial) {
  auto m = progen::build_chstone_like("gsm");
  search::SearchBudget serial_budget;
  serial_budget.max_samples = 120;
  serial_budget.seed = 9;
  search::SearchBudget parallel_budget = serial_budget;
  ThreadPool pool(8);
  parallel_budget.pool = &pool;

  const auto serial = search::genetic_search(*m, serial_budget);
  const auto parallel = search::genetic_search(*m, parallel_budget);
  EXPECT_EQ(serial.best_cycles, parallel.best_cycles);
  EXPECT_EQ(serial.best_sequence, parallel.best_sequence);
  EXPECT_EQ(serial.samples, parallel.samples);
}

TEST(ParallelSearch, GreedySearchIdenticalToSerial) {
  auto m = progen::build_chstone_like("qsort");
  search::SearchBudget serial_budget;
  serial_budget.max_samples = 100;
  serial_budget.seed = 5;
  search::SearchBudget parallel_budget = serial_budget;
  ThreadPool pool(8);
  parallel_budget.pool = &pool;

  const auto serial = search::greedy_search(*m, serial_budget);
  const auto parallel = search::greedy_search(*m, parallel_budget);
  EXPECT_EQ(serial.best_cycles, parallel.best_cycles);
  EXPECT_EQ(serial.best_sequence, parallel.best_sequence);
  EXPECT_EQ(serial.samples, parallel.samples);
}

TEST(ParallelSearch, BatchEvaluationRespectsBudgetCap) {
  auto m = progen::build_chstone_like("sha");
  search::SearchBudget budget;
  budget.max_samples = 3;
  search::Evaluator eval(*m, budget);
  Rng rng(1);
  std::vector<std::vector<int>> candidates;
  for (int i = 0; i < 10; ++i) candidates.push_back(search::random_sequence(rng, 8));
  const auto cycles = eval.evaluate_batch(candidates);
  // Worst-case cap: only budget_remaining() candidates are evaluated.
  EXPECT_EQ(cycles.size(), 3u);
  EXPECT_LE(eval.result().samples, 3u);
}

TEST(ParallelSearch, PsoSurvivesBudgetTruncatedInit) {
  // Budget below the particle count truncates the init batch; a later step
  // must only move the particles that actually got a personal best.
  auto m = progen::build_chstone_like("sha");
  search::SearchBudget budget;
  budget.max_samples = 4;
  search::Evaluator eval(*m, budget);
  search::PsoStepper stepper(search::PsoConfig{}, 6, Rng(3));
  stepper.step(eval);
  stepper.step(eval);
  EXPECT_LE(eval.result().samples, 4u);
}

// ---------------------------------------------------------------------------
// RL trainers over VecEnv
// ---------------------------------------------------------------------------

class BanditEnv final : public rl::Env {
 public:
  std::vector<double> reset() override { return {1.0}; }
  rl::StepResult step(const std::vector<std::size_t>& a) override {
    return {{1.0}, a[0] == 1 ? 1.0 : 0.0, true};
  }
  [[nodiscard]] std::size_t observation_size() const override { return 1; }
  [[nodiscard]] std::size_t action_groups() const override { return 1; }
  [[nodiscard]] std::size_t action_arity() const override { return 2; }
};

TEST(VecEnvPpo, LearnsBanditWithVectorisedRollouts) {
  VecEnvConfig cfg;
  cfg.num_envs = 4;
  cfg.seed = 3;
  VecEnv vec([](std::size_t, Rng) { return std::make_unique<BanditEnv>(); }, cfg);
  rl::PpoConfig ppo;
  ppo.iterations = 30;
  ppo.steps_per_iteration = 64;
  ppo.hidden = {16};
  ppo.seed = 3;
  rl::PpoTrainer trainer(vec, ppo);
  const auto stats = trainer.train();
  EXPECT_GT(stats.back().episode_reward_mean, 0.8);
  EXPECT_EQ(trainer.act_greedy({1.0})[0], 1u);
}

/// Everything a PPO run leaves behind: both networks' weights and every
/// IterationStats field, as raw bits so equality is bitwise.
struct PpoRunBits {
  std::vector<std::uint64_t> policy;
  std::vector<std::uint64_t> value;
  std::vector<std::uint64_t> stats;

  /// FNV-1a over the little-endian bytes of policy, value, then stats.
  [[nodiscard]] std::uint64_t digest() const {
    std::string bytes;
    for (const auto* words : {&policy, &value, &stats}) {
      for (const std::uint64_t w : *words) {
        for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(w >> (8 * i)));
      }
    }
    return fnv1a(bytes);
  }
};

std::vector<std::uint64_t> weight_bits(const ml::Mlp& net) {
  std::vector<std::uint64_t> bits;
  for (const double v : net.flatten()) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

TEST(VecEnvPpo, DeterministicForAnyThreadCount) {
  auto m = progen::build_chstone_like("sha");
  const std::vector<const ir::Module*> programs = {m.get()};
  const auto run = [&](ThreadPool* pool) {
    VecEnv vec = make_kernel_vec(programs, 4, pool, 17);
    rl::PpoConfig ppo;
    ppo.iterations = 2;
    ppo.steps_per_iteration = 32;
    ppo.minibatch_size = 16;  // two minibatches per epoch share each shuffle
    ppo.hidden = {16};
    ppo.seed = 17;
    rl::PpoTrainer trainer(vec, ppo);
    PpoRunBits bits;
    for (const auto& it : trainer.train()) {
      bits.stats.push_back(static_cast<std::uint64_t>(it.iteration));
      bits.stats.push_back(std::bit_cast<std::uint64_t>(it.episode_reward_mean));
      bits.stats.push_back(it.env_samples);
      bits.stats.push_back(std::bit_cast<std::uint64_t>(it.policy_entropy));
    }
    bits.policy = weight_bits(trainer.policy());
    bits.value = weight_bits(*trainer.export_policy().value);
    return bits;
  };
  const PpoRunBits serial = run(nullptr);
  ThreadPool pool(4);
  const PpoRunBits parallel = run(&pool);
  EXPECT_EQ(serial.stats, parallel.stats);
  EXPECT_EQ(serial.policy, parallel.policy);
  EXPECT_EQ(serial.value, parallel.value);
  // Pins the trained weights and stats themselves, so a change to the update
  // that keeps serial == parallel but moves a bit (a reordered sum, a
  // different shuffle draw) still fails here.
  EXPECT_EQ(serial.digest(), 0xb8818e946bc60ae8ULL)
      << strf("0x%016llxULL", static_cast<unsigned long long>(serial.digest()));
}

TEST(VecEnvA3c, TrainsOnVectorOwnedEnvironments) {
  VecEnvConfig cfg;
  cfg.num_envs = 3;
  cfg.seed = 1;
  VecEnv vec([](std::size_t, Rng) { return std::make_unique<BanditEnv>(); }, cfg);
  rl::A3cConfig a3c;
  a3c.workers = 8;  // clamped to the 3 envs the vector owns
  a3c.total_steps = 1500;
  a3c.hidden = {16};
  rl::A3cTrainer trainer(vec, a3c);
  const double tail_reward = trainer.train();
  EXPECT_GT(tail_reward, 0.8);
  EXPECT_EQ(trainer.act_greedy({1.0})[0], 1u);
}

}  // namespace
}  // namespace autophase::runtime
