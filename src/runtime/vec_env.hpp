// Vectorised environment execution: runs K Env instances (PhaseOrderEnv,
// MultiActionEnv, or anything else implementing rl::Env) with a reset /
// step_batch API, fanning the K steps out over a ThreadPool. Each worker gets
// a deterministic private RNG stream derived from one base seed, so the same
// seed produces the same trajectories no matter how many threads execute the
// batch — the parallel-rollout analogue of the paper's A3C/PPO workers.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "rl/env.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace autophase::runtime {

struct VecEnvConfig {
  std::size_t num_envs = 4;
  std::uint64_t seed = 1;
  /// Worker pool for step_batch / reset; nullptr steps serially. Not owned.
  ThreadPool* pool = nullptr;
};

class VecEnv {
 public:
  /// factory(worker_index, rng) builds one private environment per worker;
  /// `rng` is that worker's deterministic construction stream (use it for
  /// program sampling or other per-env randomness).
  using EnvFactory = std::function<std::unique_ptr<rl::Env>(std::size_t, Rng)>;

  VecEnv(const EnvFactory& factory, VecEnvConfig config);

  [[nodiscard]] std::size_t size() const noexcept { return envs_.size(); }
  [[nodiscard]] rl::Env& env(std::size_t i) { return *envs_[i]; }
  [[nodiscard]] const rl::Env& env(std::size_t i) const { return *envs_[i]; }
  /// The pool step_batch and reset fan out over (nullptr when serial). Not
  /// owned; callers may submit their own work between batches.
  [[nodiscard]] ThreadPool* pool() const noexcept { return config_.pool; }
  /// Per-worker policy-sampling stream; index-stable, thread-count agnostic.
  [[nodiscard]] Rng& worker_rng(std::size_t i) noexcept { return rngs_[i]; }

  /// Resets every environment; returns the K initial observations.
  std::vector<std::vector<double>> reset();

  /// Steps every environment with its own action. Finished environments are
  /// auto-reset: `done` stays true and the observation is the first one of
  /// the next episode (the convention PPO's rollout loop expects). Results
  /// land in per-index slots, so trajectories are bit-identical whether the
  /// batch runs on 1 thread or N.
  std::vector<rl::StepResult> step_batch(const std::vector<std::vector<std::size_t>>& actions);

  // Space passthroughs (all envs share one spec by construction).
  [[nodiscard]] std::size_t observation_size() const { return envs_[0]->observation_size(); }
  [[nodiscard]] std::size_t action_groups() const { return envs_[0]->action_groups(); }
  [[nodiscard]] std::size_t action_arity() const { return envs_[0]->action_arity(); }

  /// Total real simulator calls across all workers. Exact: each evaluation
  /// is attributed to exactly one env handle even when they share an
  /// EvalService.
  [[nodiscard]] std::size_t sample_count() const;

 private:
  void for_each_env(const std::function<void(std::size_t)>& fn);

  VecEnvConfig config_;
  std::vector<std::unique_ptr<rl::Env>> envs_;
  std::vector<Rng> rngs_;
};

}  // namespace autophase::runtime
