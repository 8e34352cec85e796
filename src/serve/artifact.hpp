// Serving-side model artifact: a trained policy/value pair plus the exact
// observation recipe it was trained with, packaged so a process that never
// saw training can reconstruct bit-identical inference. This is the unit the
// ModelRegistry versions and the binary serializer round-trips — the
// AutoPhase deployment story (§6.2: a trained agent picks orderings for
// unseen programs in milliseconds instead of hours of search).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ml/mlp.hpp"
#include "ml/random_forest.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "runtime/eval_service.hpp"

namespace autophase::serve {

/// Optional per-dimension whitening fitted on training observations. Empty
/// vectors = identity (the paper's envs feed raw or mode-normalised
/// features straight to the nets).
struct FeatureNormalizer {
  std::vector<double> mean;
  std::vector<double> inv_std;

  [[nodiscard]] bool identity() const noexcept { return mean.empty(); }
  void apply(std::vector<double>& observation) const;
  /// Fits mean / 1/stddev per dimension (stddev floored at 1e-9).
  static FeatureNormalizer fit(const std::vector<std::vector<double>>& observations);
};

/// Longest pass sequence one decode may walk: the bound on an artifact's
/// episode_length and on a kFixedBudget request's pass_budget (policies have
/// no terminate action by default, so the step count is the whole cost).
inline constexpr int kMaxDecodeSteps = 4096;

/// The subset of rl::EnvConfig a served policy depends on: enough to
/// reproduce the observations (and the action indexing) the policy was
/// trained on. Everything else about EnvConfig is a training concern.
struct ObservationSpec {
  int episode_length = 45;
  rl::ObservationMode observation = rl::ObservationMode::kProgramFeatures;
  rl::NormalizationMode normalization = rl::NormalizationMode::kNone;
  bool include_terminate = false;
  bool log_reward = false;
  std::vector<int> feature_subset;  // Table-2 indices; empty = all 56
  std::vector<int> action_subset;   // Table-1 indices; empty = all 45
};

ObservationSpec spec_of(const rl::EnvConfig& config);
/// Inverse of spec_of for the serving-relevant fields (evaluation wiring —
/// constraints, services — is left at defaults for the caller to fill).
rl::EnvConfig env_config_of(const ObservationSpec& spec);

/// One training-corpus measurement that ships with the artifact (format-v2
/// optional section). On import a serving node primes its EvalService cache
/// with these, so the first request for a program the model was trained on
/// finds its baseline measure already resolved instead of running the
/// simulator cold.
struct CorpusBaseline {
  std::uint64_t fingerprint = 0;  // ir::module_fingerprint of the program
  std::uint64_t cycles = 0;
  double area = 0.0;
};

/// A versioned, self-contained trained artifact. `name`/`version` are
/// assigned by ModelRegistry::publish and embedded in the serialized blob so
/// an imported model keeps its identity across processes.
struct PolicyArtifact {
  std::string name;
  std::uint32_t version = 0;
  ObservationSpec spec;
  std::size_t action_groups = 1;
  std::size_t action_arity = 0;
  ml::Mlp policy;
  std::optional<ml::Mlp> value;            // return predictor (provenance)
  std::optional<ml::RandomForest> forest;  // §4 pass-relevance classifier
  FeatureNormalizer normalizer;
  /// Optional warm-up section. Empty = none (the blob serializes as v1).
  std::vector<CorpusBaseline> baselines;
  /// EvalService::config_fingerprint() of the service that measured the
  /// baselines. Warm-up refuses to prime a node whose eval config disagrees
  /// (the trainer's cycle counts would be wrong there). 0 = unstamped
  /// (hand-built baselines; trusted as-is).
  std::uint64_t baselines_config = 0;
};

/// Packages a trainer's exported nets with the env recipe they were trained
/// on (copies the weights; the trainer can keep training afterwards).
PolicyArtifact make_artifact(const rl::PolicyExport& exported, const rl::EnvConfig& env_config,
                             FeatureNormalizer normalizer = {});

/// Measures each training-corpus program through `eval` (cache-served when
/// the trainer already profiled it) and packages the results as the warm-up
/// section for an artifact about to be published.
std::vector<CorpusBaseline> collect_baselines(const std::vector<const ir::Module*>& corpus,
                                              runtime::EvalService& eval);

/// collect_baselines + stamps the artifact with `eval`'s config fingerprint
/// — the form publishers should use, so serving nodes with a different eval
/// configuration skip priming instead of caching the wrong cycle counts.
void attach_baselines(PolicyArtifact& artifact, const std::vector<const ir::Module*>& corpus,
                      runtime::EvalService& eval);

}  // namespace autophase::serve
