// learn::OnlineTrainer: fine-tunes an incumbent PolicyArtifact on live
// traffic. PPO is warm-started from the incumbent's nets (same shapes, same
// observation recipe via env_config_of), trained on a mixture of programs
// seen in served provenance and a held training corpus, and the result is
// packaged as a candidate artifact — the *canary* the Promoter publishes
// under a shadow split and judges on measured regret before it can become
// the named default.
#pragma once

#include <memory>
#include <vector>

#include "learn/provenance.hpp"
#include "rl/ppo.hpp"
#include "runtime/eval_service.hpp"
#include "serve/artifact.hpp"
#include "support/status.hpp"

namespace autophase::learn {

struct OnlineTrainerConfig {
  /// PPO settings for the fine-tune run. `hidden` is ignored — the network
  /// shapes are dictated by the incumbent's nets (warm start requires it).
  rl::PpoConfig ppo;
};

struct FineTuneReport {
  serve::PolicyArtifact canary;
  std::vector<rl::IterationStats> iterations;
  std::size_t traffic_programs = 0;  // distinct served programs used
  std::size_t corpus_programs = 0;
};

class OnlineTrainer {
 public:
  /// `eval` is the trainer's own measurement source (shared into the env and
  /// used for the canary's warm-up baselines); never a serving node's.
  OnlineTrainer(std::shared_ptr<runtime::EvalService> eval, OnlineTrainerConfig config = {});

  /// Warm-start + fine-tune + package. `traffic` is drained provenance (its
  /// distinct programs are decoded locally); `corpus` is the stable training
  /// set (may be empty when traffic alone suffices, and vice versa). The
  /// returned artifact is unnamed — ModelRegistry::publish assigns identity.
  Result<FineTuneReport> fine_tune(const serve::PolicyArtifact& incumbent,
                                   const std::vector<ProvenanceRecord>& traffic,
                                   const std::vector<const ir::Module*>& corpus);

 private:
  std::shared_ptr<runtime::EvalService> eval_;
  OnlineTrainerConfig config_;
};

}  // namespace autophase::learn
