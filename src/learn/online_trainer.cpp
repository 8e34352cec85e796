#include "learn/online_trainer.hpp"

#include <utility>

#include "learn/collector.hpp"
#include "support/log.hpp"
#include "support/str.hpp"

namespace autophase::learn {

namespace {

/// Cap on distinct served programs mixed into the fine-tune corpus
/// (first-seen order). Keeps one hot program from drowning out the corpus
/// half of the mixture.
constexpr std::size_t kMaxTrafficPrograms = 32;

}  // namespace

OnlineTrainer::OnlineTrainer(std::shared_ptr<runtime::EvalService> eval,
                             OnlineTrainerConfig config)
    : eval_(std::move(eval)), config_(std::move(config)) {}

Result<FineTuneReport> OnlineTrainer::fine_tune(const serve::PolicyArtifact& incumbent,
                                                const std::vector<ProvenanceRecord>& traffic,
                                                const std::vector<const ir::Module*>& corpus) {
  if (!eval_) return Status::error("online trainer has no eval service");
  if (!incumbent.normalizer.identity()) {
    // The training env feeds raw observations to the nets; fine-tuning a
    // whitened policy on unwhitened inputs would silently destroy it.
    return Status::error("cannot fine-tune an artifact with a feature normalizer");
  }

  auto traffic_programs = unique_programs(traffic, kMaxTrafficPrograms);

  std::vector<const ir::Module*> mixture;
  mixture.reserve(traffic_programs.size() + corpus.size());
  for (const auto& program : traffic_programs) mixture.push_back(program.get());
  for (const auto* program : corpus) {
    if (program != nullptr) mixture.push_back(program);
  }
  if (mixture.empty()) return Status::error("no programs to fine-tune on");

  rl::EnvConfig env_config = serve::env_config_of(incumbent.spec);
  env_config.eval_service = eval_;
  rl::PhaseOrderEnv env(mixture, env_config);

  rl::PpoConfig ppo = config_.ppo;
  ppo.hidden = incumbent.policy.config().hidden;  // warm start dictates shapes
  rl::PpoTrainer trainer(env, ppo);
  const Status warmed = trainer.warm_start(
      incumbent.policy, incumbent.value.has_value() ? &incumbent.value.value() : nullptr);
  if (!warmed.is_ok()) {
    return Status::error(strf("warm start from incumbent %s v%u failed: %s",
                              incumbent.name.c_str(), incumbent.version,
                              warmed.message().c_str()));
  }

  std::vector<rl::IterationStats> iterations = trainer.train();

  serve::PolicyArtifact canary =
      serve::make_artifact(trainer.export_policy(), env_config, incumbent.normalizer);
  canary.forest = incumbent.forest;  // the §4 relevance filter rides along
  serve::attach_baselines(canary, mixture, *eval_);

  FineTuneReport report{std::move(canary), std::move(iterations), traffic_programs.size(),
                        corpus.size()};
  AP_CLOG(kInfo, "learn") << "fine-tuned canary from " << incumbent.name << " v"
                          << incumbent.version << " on " << report.traffic_programs
                          << " traffic + " << report.corpus_programs << " corpus programs ("
                          << report.iterations.size() << " PPO iterations)";
  return report;
}

}  // namespace autophase::learn
