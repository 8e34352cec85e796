// Fleet control-plane harness: brings up a three-node serving fleet, has a
// late joiner catch up over kSyncRequest/kSyncOffer, routes a request wave
// across the ring, and measures the FleetMonitor's merged view. The
// request-identity invariant — per-node completions summing to exactly the
// client-observed total — is asserted and reported as `counts_consistent`,
// which the CI bench-regression gate checks alongside throughput. Output is
// JSON for the bench-trajectory artifact.
//
//   ./bench/fleet_stats [--full] [--seed N] [--requests N] [--workers N]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench/bench_util.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/fleet_monitor.hpp"
#include "serve/remote_client.hpp"

namespace autophase {
namespace {

int run(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  std::size_t workers = 2;
  std::size_t requests = args.full ? 96 : 24;
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
  for (std::size_t i = 0; i < 4; ++i) {
    modules.push_back(progen::build_chstone_like(names[i % names.size()]));
  }

  rl::EnvConfig env_cfg;
  env_cfg.observation = rl::ObservationMode::kActionHistogram;
  env_cfg.episode_length = args.full ? 8 : 4;
  rl::PhaseOrderEnv env({modules[0].get()}, env_cfg);
  rl::PpoConfig ppo;
  ppo.hidden = {32};
  ppo.seed = args.seed;
  const rl::PpoTrainer trainer(env, ppo);

  runtime::EvalService corpus_eval;

  // Two seed nodes; publishes through A replicate to B.
  net::ServeNodeConfig node_cfg;
  node_cfg.compile.workers = workers;
  node_cfg.compile.queue_capacity = std::max<std::size_t>(requests, 16);
  net::ServeNode node_a(nullptr, nullptr, node_cfg);
  net::ServeNode node_b(nullptr, nullptr, node_cfg);
  if (!node_a.start().is_ok() || !node_b.start().is_ok()) {
    std::fprintf(stderr, "seed nodes failed to start\n");
    return 1;
  }
  node_a.add_peer(node_b.endpoint());
  serve::PolicyArtifact artifact = serve::make_artifact(trainer.export_policy(), env_cfg);
  serve::attach_baselines(artifact, bench::as_pointers(modules), corpus_eval);
  const auto published = node_a.publish("fleet", std::move(artifact));
  if (!published.is_ok() || published.value().peer_failures != 0) {
    std::fprintf(stderr, "publish failed\n");
    return 1;
  }

  // Late joiner: time the catch-up pull.
  auto registry_c = std::make_shared<serve::ModelRegistry>();
  auto eval_c = std::make_shared<runtime::EvalService>();
  net::ServeNode node_c(registry_c, eval_c, node_cfg);
  if (!node_c.start().is_ok()) {
    std::fprintf(stderr, "late node failed to start\n");
    return 1;
  }
  const auto s0 = std::chrono::steady_clock::now();
  const auto sync = node_c.sync_from(node_a.endpoint());
  const double sync_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - s0).count();
  if (!sync.is_ok() || sync.value().fetched != 1) {
    std::fprintf(stderr, "catch-up failed: %s\n", sync.message().c_str());
    return 1;
  }

  // Route one request wave across the three-node ring.
  auto client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{node_a.endpoint(), node_b.endpoint(),
                                       node_c.endpoint()});
  std::vector<serve::CompileRequest> wave;
  for (std::size_t i = 0; i < requests; ++i) {
    serve::CompileRequest request;
    request.module = modules[i % modules.size()].get();
    request.model = "fleet";
    request.objective =
        i % 3 == 0 ? serve::Objective::kCyclesTimesArea : serve::Objective::kCycles;
    wave.push_back(request);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = client->compile_batch(wave);
  const double wave_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].is_ok()) {
      std::fprintf(stderr, "request %zu failed: %s\n", i, results[i].message().c_str());
      return 1;
    }
  }

  // Merged fleet snapshot: the control-plane measurement itself.
  serve::FleetMonitor monitor(client);
  const auto m0 = std::chrono::steady_clock::now();
  const serve::FleetStats fleet = monitor.poll();
  const double poll_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - m0).count();

  std::uint64_t per_node_sum = 0;
  bench::JsonArray per_node;
  for (const auto& report : fleet.per_node) {
    if (!report.reachable) {
      std::fprintf(stderr, "node unreachable during poll: %s\n", report.error.c_str());
      return 1;
    }
    const std::uint64_t completed = report.stats.counter("serve_requests_completed");
    per_node_sum += completed;
    per_node.add_raw(strf("%llu", static_cast<unsigned long long>(completed)));
  }
  const bool counts_consistent =
      per_node_sum == requests && fleet.completed == requests &&
      fleet.latency_samples == requests && fleet.models_min == fleet.models_max;

  bench::JsonObject out;
  out.field("bench", "fleet_stats");
  out.field("nodes", static_cast<std::uint64_t>(fleet.nodes));
  out.field("requests", static_cast<std::uint64_t>(requests));
  out.field("workers", static_cast<std::uint64_t>(workers));
  out.field("fleet_rps",
            wave_seconds > 0 ? static_cast<double>(requests) / wave_seconds : 0.0);
  out.field("merged_p50_ms", fleet.latency.p50_ms);
  out.field("merged_p95_ms", fleet.latency.p95_ms);
  out.field("monitor_poll_ms", poll_ms);
  out.field("sync_fetched", static_cast<std::uint64_t>(sync.value().fetched));
  out.field("sync_bytes", sync.value().fetched_bytes);
  out.field("sync_ms", sync_ms);
  out.field("warm_primed", static_cast<std::uint64_t>(eval_c->stats().primed));
  out.raw("per_node_completed", per_node.str());
  out.field("eval_misses", fleet.eval_misses);
  out.field("eval_hits", fleet.eval_hits);
  out.field("counts_consistent", counts_consistent ? "true" : "false");
  std::printf("%s\n", out.str().c_str());
  std::fprintf(stderr, "%s\n", serve::fleet_summary(fleet).c_str());
  return counts_consistent ? 0 : 1;
}

}  // namespace
}  // namespace autophase

int main(int argc, char** argv) { return autophase::run(argc, argv); }
