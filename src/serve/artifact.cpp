#include "serve/artifact.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ir/printer.hpp"

namespace autophase::serve {

void FeatureNormalizer::apply(std::vector<double>& observation) const {
  if (identity()) return;
  assert(mean.size() == inv_std.size());
  const std::size_t n = std::min(observation.size(), mean.size());
  for (std::size_t i = 0; i < n; ++i) {
    observation[i] = (observation[i] - mean[i]) * inv_std[i];
  }
}

FeatureNormalizer FeatureNormalizer::fit(const std::vector<std::vector<double>>& observations) {
  FeatureNormalizer out;
  if (observations.empty()) return out;
  const std::size_t d = observations[0].size();
  const double n = static_cast<double>(observations.size());
  out.mean.assign(d, 0.0);
  out.inv_std.assign(d, 1.0);
  for (const auto& row : observations) {
    for (std::size_t i = 0; i < d; ++i) out.mean[i] += row[i];
  }
  for (double& m : out.mean) m /= n;
  std::vector<double> var(d, 0.0);
  for (const auto& row : observations) {
    for (std::size_t i = 0; i < d; ++i) {
      const double delta = row[i] - out.mean[i];
      var[i] += delta * delta;
    }
  }
  for (std::size_t i = 0; i < d; ++i) {
    out.inv_std[i] = 1.0 / std::max(std::sqrt(var[i] / n), 1e-9);
  }
  return out;
}

ObservationSpec spec_of(const rl::EnvConfig& config) {
  ObservationSpec spec;
  spec.episode_length = config.episode_length;
  spec.observation = config.observation;
  spec.normalization = config.normalization;
  spec.include_terminate = config.include_terminate;
  spec.log_reward = config.log_reward;
  spec.feature_subset = config.feature_subset;
  spec.action_subset = config.action_subset;
  return spec;
}

rl::EnvConfig env_config_of(const ObservationSpec& spec) {
  rl::EnvConfig config;
  config.episode_length = spec.episode_length;
  config.observation = spec.observation;
  config.normalization = spec.normalization;
  config.include_terminate = spec.include_terminate;
  config.log_reward = spec.log_reward;
  config.feature_subset = spec.feature_subset;
  config.action_subset = spec.action_subset;
  return config;
}

PolicyArtifact make_artifact(const rl::PolicyExport& exported, const rl::EnvConfig& env_config,
                             FeatureNormalizer normalizer) {
  assert(exported.policy != nullptr);
  PolicyArtifact artifact{.name = {},
                          .version = 0,
                          .spec = spec_of(env_config),
                          .action_groups = exported.action_groups,
                          .action_arity = exported.action_arity,
                          .policy = *exported.policy,
                          .value = std::nullopt,
                          .forest = std::nullopt,
                          .normalizer = std::move(normalizer),
                          .baselines = {}};
  if (exported.value != nullptr) artifact.value = *exported.value;
  return artifact;
}

std::vector<CorpusBaseline> collect_baselines(const std::vector<const ir::Module*>& corpus,
                                              runtime::EvalService& eval) {
  std::vector<CorpusBaseline> baselines;
  baselines.reserve(corpus.size());
  for (const ir::Module* program : corpus) {
    if (program == nullptr) continue;
    const runtime::Measure m = eval.measure(*program);
    baselines.push_back({ir::module_fingerprint(*program), m.cycles, m.area});
  }
  return baselines;
}

void attach_baselines(PolicyArtifact& artifact, const std::vector<const ir::Module*>& corpus,
                      runtime::EvalService& eval) {
  artifact.baselines = collect_baselines(corpus, eval);
  artifact.baselines_config = eval.config_fingerprint();
}

}  // namespace autophase::serve
