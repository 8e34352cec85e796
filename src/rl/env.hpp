// The RL environment of §5: observations are program features (Table 2)
// and/or a histogram of previously applied passes; actions are Table-1 pass
// indices (plus -terminate); the reward is the decrease in LegUp-estimated
// clock cycles. Includes the paper's two normalisation techniques (§5.3),
// the filtered feature/action subsets (§4), the multi-action formulation
// (§5.2, RL-PPO3), and multi-program corpora for generalisation training
// (§6.2). Evaluations are memoised by module fingerprint; the `samples()`
// counter counts real simulator calls, which is exactly the paper's
// "Samples / Program" metric.
#pragma once

#include <memory>
#include <vector>

#include "features/features.hpp"
#include "hls/cycle_estimator.hpp"
#include "ir/module.hpp"
#include "passes/pass.hpp"
#include "runtime/eval_service.hpp"
#include "support/rng.hpp"

namespace autophase::rl {

enum class ObservationMode {
  kProgramFeatures,   // RL-PPO1, RL-A3C, RL-ES
  kActionHistogram,   // RL-PPO2
  kBoth,              // RL-PPO3 and the generalisation experiments
};

enum class NormalizationMode {
  kNone,
  kLog,             // technique (1): log of features
  kInstCountRatio,  // technique (2): features / total instruction count
};

struct EnvConfig {
  int episode_length = 45;  // pass sequence length N (the paper's setting)
  ObservationMode observation = ObservationMode::kProgramFeatures;
  NormalizationMode normalization = NormalizationMode::kNone;
  /// Reward = log-improvement instead of raw cycle delta (§6.2).
  bool log_reward = false;
  /// RL-PPO1: zero out every reward (reward-relevance control).
  bool zero_rewards = false;
  /// Expose the -terminate action (Table-1 index 45) as a 46th action.
  bool include_terminate = false;
  /// Optional filtered subsets (§4 / §6.2). Empty = full spaces.
  std::vector<int> feature_subset;  // indices into the 56 features
  std::vector<int> action_subset;   // Table-1 pass indices
  hls::ResourceConstraints constraints{};
  interp::InterpreterOptions interp_options{};
  /// Optional shared evaluation service. When set, cycle estimates are shared
  /// across every consumer of the service (e.g. all workers of a VecEnv);
  /// when null the env owns a private single-shard service. Either way an
  /// env's samples() counts only the simulator calls its own lookups ran,
  /// which stays exact under sharing because the service charges each unique
  /// evaluation to exactly one caller.
  std::shared_ptr<runtime::EvalService> eval_service;
};

struct StepResult {
  std::vector<double> observation;
  double reward = 0.0;
  bool done = false;
};

/// Action-space-generic environment interface (actions are one choice per
/// group; single-action envs have one group).
class Env {
 public:
  virtual ~Env() = default;
  virtual std::vector<double> reset() = 0;
  virtual StepResult step(const std::vector<std::size_t>& action) = 0;
  [[nodiscard]] virtual std::size_t observation_size() const = 0;
  [[nodiscard]] virtual std::size_t action_groups() const = 0;
  [[nodiscard]] virtual std::size_t action_arity() const = 0;
  /// Simulator calls so far (the paper's Samples metric); 0 if untracked.
  [[nodiscard]] virtual std::size_t sample_count() const { return 0; }
};

/// Single-action environment over one or more programs (round-robin reset).
class PhaseOrderEnv final : public Env {
 public:
  PhaseOrderEnv(std::vector<const ir::Module*> programs, EnvConfig config);

  std::vector<double> reset() override;
  StepResult step(const std::vector<std::size_t>& action) override;
  [[nodiscard]] std::size_t observation_size() const override;
  [[nodiscard]] std::size_t action_groups() const override { return 1; }
  [[nodiscard]] std::size_t action_arity() const override {
    return effective_actions_.size() + (config_.include_terminate ? 1 : 0);
  }

  /// Inference mode: no cycle evaluation per step (rewards are zero); the
  /// final performance is measured once by the caller — this is what makes
  /// Fig. 9's "1 sample per program" possible.
  void set_inference_mode(bool on) noexcept { inference_ = on; }

  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t sample_count() const override { return samples_; }

  /// Cycles of the current working module (evaluates if needed).
  std::uint64_t current_cycles();
  [[nodiscard]] std::uint64_t baseline_cycles(std::size_t program_index);
  /// Best cycles seen for a program across all episodes, and the sequence
  /// (Table-1 indices) that achieved it.
  [[nodiscard]] std::uint64_t best_cycles(std::size_t program_index) const;
  [[nodiscard]] const std::vector<int>& best_sequence(std::size_t program_index) const;
  [[nodiscard]] std::size_t program_count() const noexcept { return programs_.size(); }
  [[nodiscard]] std::size_t current_program() const noexcept { return program_index_; }

  /// Episode return accumulated so far (for reward-mean curves).
  [[nodiscard]] double episode_return() const noexcept { return episode_return_; }

 private:
  std::vector<double> observe();
  /// Cycles of the working module. While no pass has changed it since it
  /// was last measured, that measurement (`prev_cycles_`) is the answer.
  std::uint64_t measure();
  void note_cycles(std::uint64_t cycles);

  std::vector<const ir::Module*> programs_;
  EnvConfig config_;
  std::vector<int> effective_actions_;   // RL action -> Table-1 index
  std::vector<int> effective_features_;  // observation -> feature index
  std::shared_ptr<runtime::EvalService> service_;
  std::size_t samples_ = 0;  // simulator calls this env's lookups triggered

  std::size_t program_index_ = 0;
  std::size_t next_program_ = 0;
  std::unique_ptr<ir::Module> working_;
  std::vector<double> histogram_;
  std::vector<int> applied_;  // Table-1 indices applied this episode
  int steps_ = 0;
  bool inference_ = false;
  std::uint64_t prev_cycles_ = 0;
  double episode_return_ = 0.0;
  // What is known of the working module, kept until reset or a pass that
  // changes it (in inference mode too): whether prev_cycles_ measured it,
  // under which fingerprint, and the feature part of its observation.
  bool measured_ = false;
  std::uint64_t fingerprint_ = 0;
  bool features_known_ = false;
  std::vector<double> feature_row_;

  std::vector<std::uint64_t> baseline_;  // per program (0 = unknown)
  std::vector<std::uint64_t> best_;
  std::vector<std::vector<int>> best_seq_;
};

/// Multi-action environment (§5.2, RL-PPO3): the state is a full candidate
/// sequence of N pass indices (initialised to K/2); each step adjusts every
/// position by {-1, 0, +1} and evaluates the whole sequence.
class MultiActionEnv final : public Env {
 public:
  MultiActionEnv(std::vector<const ir::Module*> programs, EnvConfig config,
                 int steps_per_episode = 10);

  std::vector<double> reset() override;
  StepResult step(const std::vector<std::size_t>& action) override;
  [[nodiscard]] std::size_t observation_size() const override;
  [[nodiscard]] std::size_t action_groups() const override {
    return static_cast<std::size_t>(config_.episode_length);
  }
  [[nodiscard]] std::size_t action_arity() const override { return 3; }  // {-1, 0, +1}

  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  [[nodiscard]] std::size_t sample_count() const override { return samples_; }
  [[nodiscard]] std::uint64_t best_cycles(std::size_t program_index) const;
  [[nodiscard]] const std::vector<int>& best_sequence(std::size_t program_index) const;
  [[nodiscard]] std::uint64_t baseline_cycles(std::size_t program_index);

 private:
  std::uint64_t evaluate_sequence();
  std::vector<double> observe(const ir::Module& optimised);

  std::vector<const ir::Module*> programs_;
  EnvConfig config_;
  int steps_per_episode_;
  std::shared_ptr<runtime::EvalService> service_;
  std::size_t samples_ = 0;

  std::size_t program_index_ = 0;
  std::size_t next_program_ = 0;
  std::vector<int> sequence_;  // N Table-1 indices
  int steps_ = 0;
  std::uint64_t prev_cycles_ = 0;
  std::vector<double> last_observation_;

  std::vector<std::uint64_t> baseline_;
  std::vector<std::uint64_t> best_;
  std::vector<std::vector<int>> best_seq_;
};

/// The guard on every path that reuses a measurement because a pass reported
/// no change: debug builds recompute `m`'s fingerprint and abort unless it is
/// still `fingerprint`. It looks nothing up in an EvalService, so cache hit
/// counts are the same in every build type. Release builds do nothing.
void check_unchanged(const ir::Module& m, std::uint64_t fingerprint);

/// The observation PhaseOrderEnv produces for `module` given the RL-action
/// histogram `histogram` (size = action arity) and the feature subset
/// `effective_features` (Table-2 indices). Only config.observation and
/// config.normalization are consulted. Shared by the training env and the
/// serving-side greedy/beam decoders so both feed the policy bit-identical
/// inputs.
std::vector<double> build_observation(const ir::Module& module,
                                      const std::vector<double>& histogram,
                                      const EnvConfig& config,
                                      const std::vector<int>& effective_features);

}  // namespace autophase::rl
