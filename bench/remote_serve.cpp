// Remote-serving harness: starts a ServeNode on a loopback ephemeral port,
// publishes a policy over the wire, then measures the protocol two ways —
// sequential request/response round trips (client-observed latency
// quantiles) and one pipelined batch over a single connection (throughput).
// Every remote answer is checked byte-identical to compile_sync against the
// owning node's registry; any mismatch or failed request exits non-zero.
// Output is JSON for CI trend tracking.
//
//   ./bench/remote_serve [--full] [--seed N] [--programs N]
//                        [--workers N] [--requests N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/remote_client.hpp"

namespace autophase {
namespace {

double quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t idx =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

int run(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  std::size_t workers = 4;
  std::size_t requests = args.full ? 128 : 24;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
  }

  const auto& names = progen::chstone_benchmark_names();
  const std::size_t num_programs =
      args.programs > 0 ? static_cast<std::size_t>(args.programs) : 3;
  std::vector<std::unique_ptr<ir::Module>> modules;
  for (std::size_t i = 0; i < num_programs; ++i) {
    modules.push_back(progen::build_chstone_like(names[i % names.size()]));
  }

  rl::EnvConfig env_cfg;
  env_cfg.observation = rl::ObservationMode::kActionHistogram;
  env_cfg.episode_length = args.full ? 12 : 5;
  rl::PhaseOrderEnv env({modules[0].get()}, env_cfg);
  rl::PpoConfig ppo;
  ppo.hidden = {64, 64};
  ppo.seed = args.seed;
  const rl::PpoTrainer trainer(env, ppo);

  net::ServeNodeConfig node_cfg;
  node_cfg.compile.workers = workers;
  node_cfg.compile.queue_capacity = std::max<std::size_t>(requests, 16);
  node_cfg.net_workers = std::max<std::size_t>(2, workers / 2);
  net::ServeNode node(nullptr, nullptr, node_cfg);
  if (const Status s = node.start(); !s.is_ok()) {
    std::fprintf(stderr, "serve node failed to start: %s\n", s.message().c_str());
    return 1;
  }

  serve::RemoteCompileClient client({node.endpoint()});
  const auto published =
      client.publish(0, "bench", serve::make_artifact(trainer.export_policy(), env_cfg));
  if (!published.is_ok()) {
    std::fprintf(stderr, "publish over the wire failed: %s\n", published.message().c_str());
    return 1;
  }

  const auto make_request = [&](std::size_t i) {
    serve::CompileRequest request;
    request.module = modules[i % modules.size()].get();
    request.model = "bench";
    request.objective =
        i % 3 == 0 ? serve::Objective::kCyclesTimesArea : serve::Objective::kCycles;
    request.beam_width = 1 + static_cast<int>(i % 2);
    return request;
  };

  // Reference pass: compile_sync on the owning node (also warms its
  // EvalService exactly as steady-state traffic would).
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < requests; ++i) {
    auto response = node.service().compile_sync(make_request(i));
    if (!response.is_ok()) {
      std::fprintf(stderr, "sync serve failed: %s\n", response.message().c_str());
      return 1;
    }
    expected.push_back(net::response_identity_bytes(response.value()));
  }

  // Phase 1: sequential round trips — client-observed latency.
  bool identical = true;
  std::vector<double> rt_ms;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const auto r0 = std::chrono::steady_clock::now();
    auto response = client.compile(make_request(i));
    if (!response.is_ok()) {
      std::fprintf(stderr, "remote request %zu failed: %s\n", i, response.message().c_str());
      return 1;
    }
    rt_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - r0)
            .count());
    identical = identical && net::response_identity_bytes(response.value()) == expected[i];
  }
  const double seq_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Phase 2: the same workload pipelined over one connection.
  std::vector<serve::CompileRequest> batch;
  for (std::size_t i = 0; i < requests; ++i) batch.push_back(make_request(i));
  const auto p0 = std::chrono::steady_clock::now();
  auto results = client.compile_batch(batch);
  const double pipe_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - p0).count();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].is_ok()) {
      std::fprintf(stderr, "pipelined request %zu failed: %s\n", i,
                   results[i].message().c_str());
      return 1;
    }
    identical = identical && net::response_identity_bytes(results[i].value()) == expected[i];
  }

  const serve::ServeMetrics served = node.service().metrics();
  const runtime::EvalStats eval = node.service().eval_service()->stats();
  const serve::RemoteClientStats client_stats = client.stats();
  bench::JsonObject out;
  out.field("bench", "remote_serve");
  out.field("requests", static_cast<std::uint64_t>(requests));
  out.field("workers", static_cast<std::uint64_t>(workers));
  out.field("programs", static_cast<std::uint64_t>(modules.size()));
  out.field("roundtrip_rps",
            seq_seconds > 0 ? static_cast<double>(requests) / seq_seconds : 0.0);
  out.field("roundtrip_p50_ms", quantile(rt_ms, 0.5));
  out.field("roundtrip_p95_ms", quantile(rt_ms, 0.95));
  out.field("pipelined_rps",
            pipe_seconds > 0 ? static_cast<double>(requests) / pipe_seconds : 0.0);
  out.field("server_p50_ms", served.latency.p50_ms);
  out.field("server_p95_ms", served.latency.p95_ms);
  out.field("server_completed", static_cast<std::uint64_t>(served.completed));
  out.field("server_failed", static_cast<std::uint64_t>(served.failed));
  out.field("eval_cache_hits", eval.hits);
  out.field("eval_cache_misses", eval.misses);
  out.field("eval_cache_hit_rate", eval.hit_rate());
  out.field("client_connects", client_stats.connects);
  out.field("client_timeouts", client_stats.timeouts);
  out.field("serial_identical", identical ? "true" : "false");
  std::printf("%s\n", out.str().c_str());
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace autophase

int main(int argc, char** argv) { return autophase::run(argc, argv); }
