// Proximal Policy Optimization (Schulman et al. 2017) with the clipped
// surrogate objective, GAE, minibatch epochs, entropy bonus, and a separate
// value network — the paper's main agent (RL-PPO1/2/3 differ only in the
// environment's observation/action spaces and reward wiring, Table 3).
// Setting epochs=1, clip very large and gae_lambda=1 degrades PPO to
// vanilla policy gradient (§2.2), exposed as vanilla_pg_config().
#pragma once

#include <functional>

#include "ml/distributions.hpp"
#include "ml/mlp.hpp"
#include "ml/optimizer.hpp"
#include "rl/env.hpp"
#include "rl/rollout.hpp"
#include "runtime/vec_env.hpp"
#include "support/status.hpp"

namespace autophase::rl {

struct PpoConfig {
  int iterations = 20;
  int steps_per_iteration = 256;  // rollout length (across episodes)
  int minibatch_size = 64;
  int epochs = 4;
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double clip = 0.2;
  double entropy_coef = 0.01;
  double learning_rate = 5e-4;
  std::vector<std::size_t> hidden = {256, 256};
  std::uint64_t seed = 1;
};

/// Vanilla PG preset (background §2.2).
PpoConfig vanilla_pg_config();

/// Non-owning snapshot of everything the serving layer needs to run a
/// trained agent outside the trainer: the policy/value networks plus the
/// factored action-space layout. Consumed by serve::make_artifact, which
/// copies the weights into a self-contained PolicyArtifact.
struct PolicyExport {
  const ml::Mlp* policy = nullptr;
  const ml::Mlp* value = nullptr;
  std::size_t action_groups = 1;
  std::size_t action_arity = 0;
};

struct IterationStats {
  int iteration = 0;
  double episode_reward_mean = 0.0;
  std::size_t env_samples = 0;  // cumulative simulator calls
  double policy_entropy = 0.0;
};

/// Threading: with a VecEnv whose pool has more than one thread, iterate()
/// uses that pool twice, for the lane steps and for the value-network update.
/// So iterate() and train() must not be called from one of the pool's own
/// workers: the nested waits can deadlock once every worker blocks in one.
class PpoTrainer {
 public:
  PpoTrainer(Env& env, PpoConfig config);

  /// Vectorised rollout collection: transitions come from all K environments
  /// of `vec` (policy forward passes are batched over the K lanes, GAE runs
  /// per lane), actions are sampled from the VecEnv's per-worker RNG
  /// streams. When the VecEnv has a pool of more than one thread, the update
  /// trains the value network on that pool while the calling thread trains
  /// the policy; the two share only the rollout and the minibatch orders.
  /// Same seed => same trajectories, weights and stats, bit for bit, for any
  /// thread count.
  PpoTrainer(runtime::VecEnv& vec, PpoConfig config);

  /// One PPO iteration: collect `steps_per_iteration` transitions, then run
  /// minibatch-epoch updates of the policy and value networks. Returns stats
  /// for learning curves (Fig. 8).
  IterationStats iterate();

  /// Full training run; optional per-iteration callback.
  std::vector<IterationStats> train(
      const std::function<void(const IterationStats&)>& on_iteration = nullptr);

  /// Greedy action(s) for an observation (inference / Fig. 9).
  std::vector<std::size_t> act_greedy(const std::vector<double>& observation) const;
  /// Stochastic action(s) (exploration).
  std::vector<std::size_t> act_sample(const std::vector<double>& observation);

  [[nodiscard]] const ml::Mlp& policy() const noexcept { return policy_; }
  /// Export hook for serving: views of the trained nets + action layout.
  [[nodiscard]] PolicyExport export_policy() const noexcept;

  /// Warm start: copies previously trained weights (e.g. an incumbent
  /// PolicyArtifact's nets) into this trainer's networks, so train() is
  /// fine-tuning instead of learning from scratch. Shapes must match the
  /// networks this trainer built from (env, config) — errors otherwise.
  /// `value` is optional (skipped when null, e.g. a forest-only artifact).
  /// Call before the first iterate(): the Adam moments are still zero then,
  /// so no optimiser reset is needed.
  Status warm_start(const ml::Mlp& policy, const ml::Mlp* value = nullptr);

 private:
  double value_of(const std::vector<double>& observation) const;
  void update(const RolloutBuffer& buffer);
  // Each minibatch is a list of buffer rows; both loops take every epoch's.
  void update_policy(const RolloutBuffer& buffer,
                     const std::vector<std::vector<std::size_t>>& minibatches);
  void update_value(const RolloutBuffer& buffer,
                    const std::vector<std::vector<std::size_t>>& minibatches);
  IterationStats iterate_env();
  IterationStats iterate_vec();
  IterationStats finish_iteration(RolloutBuffer& buffer, double reward_mean,
                                  std::size_t env_samples);

  Env* env_ = nullptr;               // single-env rollout source
  runtime::VecEnv* vec_ = nullptr;   // vectorised rollout source
  PpoConfig config_;
  Rng rng_;
  ml::FactoredCategorical dist_;
  ml::Mlp policy_;
  ml::Mlp value_;
  ml::Adam policy_opt_;
  ml::Adam value_opt_;
  int iteration_ = 0;

  // Rollout continuity between iterations.
  std::vector<double> obs_;
  std::vector<std::vector<double>> vec_obs_;  // one lane per VecEnv worker
  bool need_reset_ = true;
  double last_entropy_ = 0.0;
};

}  // namespace autophase::rl
