// Observability-overhead harness: proves instrumentation is cheap enough to
// leave on. Serves the same concurrent compile workload twice through one
// CompileService — once with the process tracer off (production default:
// every span site costs a single relaxed load + branch) and once with
// tracing fully on (spans recorded through queue -> decode -> eval into the
// ring) — and gates on the throughput ratio: tracing on must
// stay within 5% of tracing off. Metrics counters/histograms are live in
// both passes; they are lock-free relaxed adds and part of the baseline.
//
// Modes alternate and the best of several repetitions is kept per mode, so
// runner noise hits both sides before the ratio is taken.
//
//   ./bench/obs_overhead [--full] [--seed N] [--requests N] [--workers N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.hpp"
#include "obs/trace.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/compile_service.hpp"
#include "serve/model_registry.hpp"

namespace autophase {
namespace {

using namespace serve;

/// One timed burst of `requests` concurrent submissions; returns rps.
/// Exits the process on a failed request — overhead numbers from a broken
/// run would gate on garbage.
double run_pass(CompileService& service,
                const std::vector<std::unique_ptr<ir::Module>>& modules, std::size_t requests) {
  const auto make_request = [&](std::size_t i) {
    CompileRequest request;
    request.module = modules[i % modules.size()].get();
    request.model = "bench";
    request.beam_width = 1 + static_cast<int>(i % 2);
    request.priority = static_cast<int>(i % 4);
    return request;
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<CompileService::ResponseFuture> futures;
  futures.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) futures.push_back(service.submit(make_request(i)));
  for (std::size_t i = 0; i < requests; ++i) {
    auto response = futures[i].get();
    if (!response.is_ok()) {
      std::fprintf(stderr, "request %zu failed: %s\n", i, response.message().c_str());
      std::exit(1);
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
}

int run(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  std::size_t workers = 4;
  std::size_t requests = args.full ? 192 : 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
  }

  const auto& names = progen::chstone_benchmark_names();
  std::vector<std::unique_ptr<ir::Module>> modules;
  for (std::size_t i = 0; i < 3; ++i) {
    modules.push_back(progen::build_chstone_like(names[i % names.size()]));
  }

  rl::EnvConfig env_cfg;
  env_cfg.observation = rl::ObservationMode::kActionHistogram;
  env_cfg.episode_length = 5;
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

  // Warm pass: faults weights and fills the eval cache, so the measured
  // passes exercise the steady-state serving path the overhead claim is
  // about (queue, decode, cache hits) rather than first-touch
  // simulator costs.
  obs::tracer().set_enabled(false);
  (void)run_pass(service, modules, requests);

  double off_rps = 0.0;
  double on_rps = 0.0;
  const int reps = args.full ? 5 : 3;
  for (int rep = 0; rep < reps; ++rep) {
    obs::tracer().set_enabled(false);
    off_rps = std::max(off_rps, run_pass(service, modules, requests));
    obs::tracer().set_enabled(true);
    on_rps = std::max(on_rps, run_pass(service, modules, requests));
  }
  const std::uint64_t spans = obs::tracer().recorded();
  obs::tracer().set_enabled(false);
  obs::tracer().clear();

  const double overhead_pct =
      off_rps > 0 ? 100.0 * (off_rps - on_rps) / off_rps : 0.0;
  const bool within_bound = on_rps >= 0.95 * off_rps;

  bench::JsonObject out;
  out.field("bench", "obs_overhead");
  out.field("requests", static_cast<std::uint64_t>(requests));
  out.field("workers", static_cast<std::uint64_t>(workers));
  out.field("reps", static_cast<std::uint64_t>(reps));
  out.field("tracing_off_rps", off_rps);
  out.field("tracing_on_rps", on_rps);
  out.field("overhead_pct", overhead_pct);
  out.field("spans_recorded", spans);
  out.field("overhead_within_bound", within_bound ? "true" : "false");
  std::printf("%s\n", out.str().c_str());
  if (!within_bound) {
    std::fprintf(stderr, "tracing overhead %.1f%% exceeds the 5%% bound\n", overhead_pct);
  }
  return within_bound ? 0 : 1;
}

}  // namespace
}  // namespace autophase

int main(int argc, char** argv) { return autophase::run(argc, argv); }
