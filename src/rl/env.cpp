#include "rl/env.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "support/log.hpp"

namespace autophase::rl {

namespace {

double normalise_feature(double v, NormalizationMode mode, double inst_count) {
  switch (mode) {
    case NormalizationMode::kNone: return v;
    case NormalizationMode::kLog: return std::log1p(std::abs(v));
    case NormalizationMode::kInstCountRatio: return inst_count > 0 ? v / inst_count : v;
  }
  return v;
}

double shape_reward(double delta, bool log_reward) {
  if (!log_reward) return delta;
  return delta >= 0 ? std::log1p(delta) : -std::log1p(-delta);
}

/// The normalised feature part of an observation of `module`.
std::vector<double> feature_row(const ir::Module& module, const EnvConfig& config,
                                const std::vector<int>& effective_features) {
  const auto fv = features::extract_features(module);
  const double inst_count = static_cast<double>(fv[51]);
  std::vector<double> row;
  row.reserve(effective_features.size());
  for (const int f : effective_features) {
    row.push_back(normalise_feature(static_cast<double>(fv[static_cast<std::size_t>(f)]),
                                    config.normalization, inst_count));
  }
  return row;
}

#ifndef NDEBUG
[[noreturn]] void reuse_violation(const char* what) {
  std::fprintf(stderr, "pass reported no change, but the module's %s moved\n", what);
  std::abort();
}
#endif

/// Envs take a shared service from their config when one is set and fall
/// back to a private single-shard service otherwise.
std::shared_ptr<runtime::EvalService> env_service(const EnvConfig& config) {
  if (config.eval_service) return config.eval_service;
  return std::make_shared<runtime::EvalService>(runtime::EvalServiceConfig{
      .constraints = config.constraints, .interp_options = config.interp_options, .shards = 1});
}

/// Cycles of `m`, whose fingerprint is `fingerprint`, adding one to
/// `samples` when this lookup ran the simulator.
std::uint64_t lookup_cycles(runtime::EvalService& service, const ir::Module& m,
                            std::uint64_t fingerprint, std::size_t& samples) {
  bool was_sample = false;
  const std::uint64_t cycles = service.measure(m, fingerprint, &was_sample).cycles;
  if (was_sample) ++samples;
  return cycles;
}

}  // namespace

void check_unchanged([[maybe_unused]] const ir::Module& m,
                     [[maybe_unused]] std::uint64_t fingerprint) {
#ifndef NDEBUG
  if (ir::module_fingerprint(m) != fingerprint) reuse_violation("fingerprint");
#endif
}

// ---------------------------------------------------------------------------
// PhaseOrderEnv
// ---------------------------------------------------------------------------

PhaseOrderEnv::PhaseOrderEnv(std::vector<const ir::Module*> programs, EnvConfig config)
    : programs_(std::move(programs)), config_(config), service_(env_service(config)) {
  if (config_.action_subset.empty()) {
    for (int i = 0; i < passes::kNumPasses; ++i) effective_actions_.push_back(i);
  } else {
    effective_actions_ = config_.action_subset;
  }
  if (config_.feature_subset.empty()) {
    for (int i = 0; i < features::kNumFeatures; ++i) effective_features_.push_back(i);
  } else {
    effective_features_ = config_.feature_subset;
  }
  baseline_.assign(programs_.size(), 0);
  best_.assign(programs_.size(), ~0ull);
  best_seq_.assign(programs_.size(), {});
}

std::size_t PhaseOrderEnv::observation_size() const {
  std::size_t n = 0;
  if (config_.observation != ObservationMode::kActionHistogram) {
    n += effective_features_.size();
  }
  if (config_.observation != ObservationMode::kProgramFeatures) n += action_arity();
  return n;
}

std::vector<double> PhaseOrderEnv::reset() {
  program_index_ = next_program_;
  next_program_ = (next_program_ + 1) % programs_.size();
  // CoW rollout clone: the base program outlives the env, and bodies only
  // deep-copy when the first pass of the episode mutates them.
  working_ = ir::clone_module_for_rollout(*programs_[program_index_]);
  histogram_.assign(action_arity(), 0.0);
  applied_.clear();
  steps_ = 0;
  episode_return_ = 0.0;
  measured_ = false;
  features_known_ = false;
  if (!inference_) {
    prev_cycles_ = measure();
    if (baseline_[program_index_] == 0) baseline_[program_index_] = prev_cycles_;
    note_cycles(prev_cycles_);
  }
  return observe();
}

void PhaseOrderEnv::note_cycles(std::uint64_t cycles) {
  if (cycles < best_[program_index_]) {
    best_[program_index_] = cycles;
    best_seq_[program_index_] = applied_;
  }
}

std::uint64_t PhaseOrderEnv::measure() {
  if (measured_) {
    check_unchanged(*working_, fingerprint_);
    return prev_cycles_;
  }
  fingerprint_ = ir::module_fingerprint(*working_);
  measured_ = true;
  return lookup_cycles(*service_, *working_, fingerprint_, samples_);
}

std::uint64_t PhaseOrderEnv::current_cycles() {
  return lookup_cycles(*service_, *working_, ir::module_fingerprint(*working_), samples_);
}

std::uint64_t PhaseOrderEnv::baseline_cycles(std::size_t program_index) {
  if (baseline_[program_index] == 0) {
    const ir::Module& program = *programs_[program_index];
    baseline_[program_index] =
        lookup_cycles(*service_, program, ir::module_fingerprint(program), samples_);
  }
  return baseline_[program_index];
}

std::uint64_t PhaseOrderEnv::best_cycles(std::size_t program_index) const {
  return best_[program_index];
}

const std::vector<int>& PhaseOrderEnv::best_sequence(std::size_t program_index) const {
  return best_seq_[program_index];
}

StepResult PhaseOrderEnv::step(const std::vector<std::size_t>& action) {
  const std::size_t a = action.at(0);
  StepResult out;
  ++steps_;

  const bool is_terminate = config_.include_terminate && a + 1 == action_arity();
  if (!is_terminate) {
    const int pass_index = effective_actions_[a];
    if (passes::apply_pass(*working_, pass_index)) {
      measured_ = false;
      features_known_ = false;
    }
    applied_.push_back(pass_index);
    histogram_[a] += 1.0;
    if (!inference_) {
      const std::uint64_t cycles = measure();
      const double delta = static_cast<double>(prev_cycles_) - static_cast<double>(cycles);
      prev_cycles_ = cycles;
      note_cycles(cycles);
      out.reward = config_.zero_rewards ? 0.0 : shape_reward(delta, config_.log_reward);
      episode_return_ += out.reward;
    }
  }

  out.done = is_terminate || steps_ >= config_.episode_length;
  out.observation = observe();
  return out;
}

std::vector<double> PhaseOrderEnv::observe() {
  if (config_.observation == ObservationMode::kActionHistogram) return histogram_;
  if (!features_known_) {
    feature_row_ = feature_row(*working_, config_, effective_features_);
    features_known_ = true;
  }
#ifndef NDEBUG
  else if (feature_row(*working_, config_, effective_features_) != feature_row_) {
    reuse_violation("features");
  }
#endif
  std::vector<double> obs = feature_row_;
  if (config_.observation != ObservationMode::kProgramFeatures) {
    obs.insert(obs.end(), histogram_.begin(), histogram_.end());
  }
  return obs;
}

std::vector<double> build_observation(const ir::Module& module,
                                      const std::vector<double>& histogram,
                                      const EnvConfig& config,
                                      const std::vector<int>& effective_features) {
  std::vector<double> obs;
  if (config.observation != ObservationMode::kActionHistogram) {
    obs = feature_row(module, config, effective_features);
  }
  if (config.observation != ObservationMode::kProgramFeatures) {
    obs.insert(obs.end(), histogram.begin(), histogram.end());
  }
  return obs;
}

// ---------------------------------------------------------------------------
// MultiActionEnv
// ---------------------------------------------------------------------------

MultiActionEnv::MultiActionEnv(std::vector<const ir::Module*> programs, EnvConfig config,
                               int steps_per_episode)
    : programs_(std::move(programs)),
      config_(config),
      steps_per_episode_(steps_per_episode),
      service_(env_service(config)) {
  baseline_.assign(programs_.size(), 0);
  best_.assign(programs_.size(), ~0ull);
  best_seq_.assign(programs_.size(), {});
}

std::size_t MultiActionEnv::observation_size() const {
  // Histogram over the 45 Table-1 passes + the 56 program features.
  return static_cast<std::size_t>(passes::kNumPasses) +
         static_cast<std::size_t>(features::kNumFeatures);
}

std::uint64_t MultiActionEnv::evaluate_sequence() {
  auto working = ir::clone_module_for_rollout(*programs_[program_index_]);
  passes::apply_pass_sequence(*working, sequence_);
  const std::uint64_t cycles =
      lookup_cycles(*service_, *working, ir::module_fingerprint(*working), samples_);
  if (cycles < best_[program_index_]) {
    best_[program_index_] = cycles;
    best_seq_[program_index_] = sequence_;
  }
  last_observation_ = observe(*working);
  return cycles;
}

std::vector<double> MultiActionEnv::observe(const ir::Module& optimised) {
  std::vector<double> obs;
  obs.reserve(observation_size());
  std::vector<double> histogram(static_cast<std::size_t>(passes::kNumPasses), 0.0);
  for (const int p : sequence_) histogram[static_cast<std::size_t>(p)] += 1.0;
  obs.insert(obs.end(), histogram.begin(), histogram.end());
  const auto fv = features::extract_features(optimised);
  const double inst_count = static_cast<double>(fv[51]);
  for (const auto v : fv) {
    obs.push_back(
        normalise_feature(static_cast<double>(v), config_.normalization, inst_count));
  }
  return obs;
}

std::vector<double> MultiActionEnv::reset() {
  program_index_ = next_program_;
  next_program_ = (next_program_ + 1) % programs_.size();
  sequence_.assign(static_cast<std::size_t>(config_.episode_length), passes::kNumPasses / 2);
  steps_ = 0;
  prev_cycles_ = evaluate_sequence();
  (void)baseline_cycles(program_index_);  // measured once per program
  return last_observation_;
}

std::uint64_t MultiActionEnv::baseline_cycles(std::size_t program_index) {
  if (baseline_[program_index] == 0) {
    const ir::Module& program = *programs_[program_index];
    baseline_[program_index] =
        lookup_cycles(*service_, program, ir::module_fingerprint(program), samples_);
  }
  return baseline_[program_index];
}

std::uint64_t MultiActionEnv::best_cycles(std::size_t program_index) const {
  return best_[program_index];
}

const std::vector<int>& MultiActionEnv::best_sequence(std::size_t program_index) const {
  return best_seq_[program_index];
}

StepResult MultiActionEnv::step(const std::vector<std::size_t>& action) {
  ++steps_;
  for (std::size_t i = 0; i < sequence_.size() && i < action.size(); ++i) {
    const int delta = static_cast<int>(action[i]) - 1;  // {0,1,2} -> {-1,0,+1}
    sequence_[i] = std::clamp(sequence_[i] + delta, 0, passes::kNumPasses - 1);
  }
  const std::uint64_t cycles = evaluate_sequence();
  StepResult out;
  out.reward = shape_reward(
      static_cast<double>(prev_cycles_) - static_cast<double>(cycles), config_.log_reward);
  prev_cycles_ = cycles;
  out.done = steps_ >= steps_per_episode_;
  out.observation = last_observation_;
  return out;
}

}  // namespace autophase::rl
