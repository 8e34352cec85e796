// End-to-end train -> export -> serve walkthrough: trains a small PPO agent
// on one kernel, exports the policy to a binary artifact file, imports it
// into a *fresh* ModelRegistry (as a separate serving process would), and
// serves a few compile requests — greedy, beam, and fixed-budget — printing
// the provenance record each response carries.

#include <cstdio>
#include <filesystem>

#include "progen/chstone_like.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/compile_service.hpp"
#include "serve/model_registry.hpp"

using namespace autophase;

namespace {

void print_response(const char* label, const serve::CompileResponse& response) {
  const serve::Provenance& p = response.provenance;
  std::printf("%-14s %s v%u  passes=%zu  cycles %llu -> %llu (predicted %llu)  beams=%d\n",
              label, p.model.c_str(), p.version, p.sequence.size(),
              static_cast<unsigned long long>(p.baseline_cycles),
              static_cast<unsigned long long>(p.measured_cycles),
              static_cast<unsigned long long>(p.predicted_cycles), p.beams_evaluated);
  std::printf("               sequence:");
  for (const int pass : p.sequence) std::printf(" %d", pass);
  std::printf("\n");
}

}  // namespace

int main() {
  auto program = progen::build_chstone_like("sha");

  // --- Train (the paper's §5 loop, miniaturised) ---------------------------
  rl::EnvConfig env_cfg;
  env_cfg.observation = rl::ObservationMode::kActionHistogram;
  env_cfg.episode_length = 4;
  rl::PhaseOrderEnv env({program.get()}, env_cfg);
  rl::PpoConfig ppo;
  ppo.iterations = 2;
  ppo.steps_per_iteration = 32;
  ppo.hidden = {32};
  ppo.seed = 7;
  rl::PpoTrainer trainer(env, ppo);
  trainer.train();
  std::printf("trained: %zu simulator samples\n", env.samples());

  // --- Export: trainer process writes a self-contained binary artifact ----
  serve::ModelRegistry trainer_registry;
  trainer_registry.publish("ppo-sha", serve::make_artifact(trainer.export_policy(), env_cfg));
  const std::string path =
      (std::filesystem::temp_directory_path() / "autophase_serve_demo.bin").string();
  if (const Status s = trainer_registry.export_file("ppo-sha", 0, path); !s.is_ok()) {
    std::fprintf(stderr, "export failed: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("exported model to %s (%ju bytes)\n", path.c_str(),
              static_cast<std::uintmax_t>(std::filesystem::file_size(path)));

  // --- Serve: a fresh registry (a different process in production) --------
  auto registry = std::make_shared<serve::ModelRegistry>();
  if (const auto key = registry->import_file(path); !key.is_ok()) {
    std::fprintf(stderr, "import failed: %s\n", key.message().c_str());
    return 1;
  }
  serve::CompileService service(registry, nullptr, {.workers = 2});

  serve::CompileRequest greedy;
  greedy.module = program.get();
  greedy.model = "ppo-sha";

  serve::CompileRequest beam = greedy;
  beam.beam_width = 4;

  serve::CompileRequest budget = greedy;
  budget.objective = serve::Objective::kFixedBudget;
  budget.pass_budget = 2;

  auto f_greedy = service.submit(greedy);
  auto f_beam = service.submit(beam);
  auto f_budget = service.submit(budget);
  auto r_greedy = f_greedy.get();
  auto r_beam = f_beam.get();
  auto r_budget = f_budget.get();
  if (!r_greedy.is_ok() || !r_beam.is_ok() || !r_budget.is_ok()) {
    std::fprintf(stderr, "serving failed\n");
    return 1;
  }
  print_response("greedy:", r_greedy.value());
  print_response("beam(4):", r_beam.value());
  print_response("budget(2):", r_budget.value());

  const serve::ServeMetrics metrics = service.metrics();
  std::printf("served %zu requests, p50 %.2f ms, p95 %.2f ms, %ju policy rows in %ju forwards\n",
              metrics.completed, metrics.latency.p50_ms, metrics.latency.p95_ms,
              static_cast<std::uintmax_t>(metrics.batcher.rows),
              static_cast<std::uintmax_t>(metrics.batcher.batches));
  std::filesystem::remove(path);
  return 0;
}
