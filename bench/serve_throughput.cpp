// Serving throughput/latency harness: publishes a policy into a
// ModelRegistry, fires a stream of concurrent compile requests at a
// CompileService, and reports requests/sec plus p50/p95 latency as JSON
// (machine-readable, CI trend tracking). Also cross-checks that every served
// sequence is bit-identical to the single-threaded compile_sync path — the
// queue and worker pool must never change an answer.
//
//   ./bench/serve_throughput [--full] [--seed N] [--programs N]
//                            [--workers N] [--requests N]

#include <cstdio>
#include <cstring>

#include "bench/bench_util.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/compile_service.hpp"
#include "serve/model_registry.hpp"

namespace autophase {
namespace {

using namespace serve;

int run(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  std::size_t workers = 4;
  std::size_t requests = args.full ? 256 : 48;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
  }

  // Workload: a rotation over CHStone-like kernels.
  const auto& names = progen::chstone_benchmark_names();
  const std::size_t num_programs =
      args.programs > 0 ? static_cast<std::size_t>(args.programs) : 3;
  std::vector<std::unique_ptr<ir::Module>> modules;
  for (std::size_t i = 0; i < num_programs; ++i) {
    modules.push_back(progen::build_chstone_like(names[i % names.size()]));
  }

  // Model under test: a PPO-initialised policy (weights deterministic per
  // seed; serving performance does not depend on training quality).
  rl::EnvConfig env_cfg;
  env_cfg.observation = rl::ObservationMode::kActionHistogram;
  env_cfg.episode_length = args.full ? 12 : 5;
  rl::PhaseOrderEnv env({modules[0].get()}, env_cfg);
  rl::PpoConfig ppo;
  ppo.hidden = {64, 64};
  ppo.seed = args.seed;
  const rl::PpoTrainer trainer(env, ppo);

  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("bench", make_artifact(trainer.export_policy(), env_cfg));
  auto eval = std::make_shared<runtime::EvalService>();

  CompileServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = requests;
  CompileService service(registry, eval, cfg);

  const auto make_request = [&](std::size_t i) {
    CompileRequest request;
    request.module = modules[i % modules.size()].get();
    request.model = "bench";
    request.objective = i % 3 == 0 ? Objective::kCyclesTimesArea : Objective::kCycles;
    request.beam_width = 1 + static_cast<int>(i % 2);
    request.priority = static_cast<int>(i % 4);
    return request;
  };

  // Single-threaded reference pass (also warms the evaluation cache exactly
  // the way a steady-state service would be warmed).
  std::vector<Provenance> expected;
  for (std::size_t i = 0; i < requests; ++i) {
    auto response = service.compile_sync(make_request(i));
    if (!response.is_ok()) {
      std::fprintf(stderr, "sync serve failed: %s\n", response.message().c_str());
      return 1;
    }
    expected.push_back(std::move(response.value().provenance));
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<CompileService::ResponseFuture> futures;
  futures.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) futures.push_back(service.submit(make_request(i)));
  bool identical = true;
  for (std::size_t i = 0; i < requests; ++i) {
    auto response = futures[i].get();
    if (!response.is_ok()) {
      std::fprintf(stderr, "served request %zu failed: %s\n", i, response.message().c_str());
      return 1;
    }
    identical = identical && response.value().provenance.sequence == expected[i].sequence &&
                response.value().provenance.measured_cycles == expected[i].measured_cycles;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const ServeMetrics metrics = service.metrics();
  bench::JsonObject out;
  out.field("bench", "serve_throughput");
  out.field("requests", static_cast<std::uint64_t>(requests));
  out.field("workers", static_cast<std::uint64_t>(workers));
  out.field("programs", static_cast<std::uint64_t>(modules.size()));
  out.field("wall_seconds", seconds);
  out.field("requests_per_sec", seconds > 0 ? static_cast<double>(requests) / seconds : 0.0);
  out.field("p50_latency_ms", metrics.latency.p50_ms);
  out.field("p95_latency_ms", metrics.latency.p95_ms);
  out.field("mean_latency_ms", metrics.latency.mean_ms);
  out.field("max_queue_depth", static_cast<std::uint64_t>(metrics.max_queue_depth));
  out.field("batched_forwards", metrics.batcher.batches);
  out.field("batched_rows", metrics.batcher.rows);
  out.field("completed", static_cast<std::uint64_t>(metrics.completed));
  out.field("failed", static_cast<std::uint64_t>(metrics.failed));
  out.field("serial_identical", identical ? "true" : "false");
  std::printf("%s\n", out.str().c_str());
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace autophase

int main(int argc, char** argv) { return autophase::run(argc, argv); }
