// Three-node fleet-operations walkthrough — the control plane on top of the
// cluster from examples/cluster_demo:
//
//   1. Train a small PPO policy and publish two versions through node A,
//      each carrying its training-corpus baselines (artifact format v2);
//      A replicates to B.
//   2. Bring node C up *after* both publishes. C pulls A's version vector
//      over kSyncRequest/kSyncOffer and fetches the blobs it is missing —
//      all three registries end bit-identical.
//   3. Show serving-time warm-up: C's EvalService was primed during the
//      catch-up import, so C's very first request finds its baseline
//      measurement already cached.
//   4. Route traffic across the fleet and let a FleetMonitor merge every
//      node's counters and latency reservoirs into one snapshot — per-node
//      completions must sum to exactly what the clients observed.

#include <cstdio>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "net/wire.hpp"
#include "progen/chstone_like.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/fleet_monitor.hpp"
#include "serve/remote_client.hpp"

using namespace autophase;

int main() {
  // --- Train and package, baselines included --------------------------------
  auto sha = progen::build_chstone_like("sha");
  auto gsm = progen::build_chstone_like("gsm");
  rl::EnvConfig env_cfg;
  env_cfg.observation = rl::ObservationMode::kActionHistogram;
  env_cfg.episode_length = 4;
  rl::PhaseOrderEnv env({sha.get()}, env_cfg);
  rl::PpoConfig ppo;
  ppo.iterations = 2;
  ppo.steps_per_iteration = 32;
  ppo.hidden = {32};
  ppo.seed = 7;
  rl::PpoTrainer trainer(env, ppo);
  trainer.train();

  runtime::EvalService trainer_eval;
  std::printf("trained: %zu simulator samples\n", env.samples());

  // --- Two-node fleet; two publishes replicate A -> B -----------------------
  net::ServeNode node_a(nullptr, nullptr, {});
  net::ServeNode node_b(nullptr, nullptr, {});
  if (!node_a.start().is_ok() || !node_b.start().is_ok()) {
    std::fprintf(stderr, "nodes failed to start\n");
    return 1;
  }
  node_a.add_peer(node_b.endpoint());
  for (int version = 1; version <= 2; ++version) {
    serve::PolicyArtifact artifact = serve::make_artifact(trainer.export_policy(), env_cfg);
    serve::attach_baselines(artifact, {sha.get(), gsm.get()}, trainer_eval);
    const auto reply = node_a.publish("ppo-sha", std::move(artifact));
    if (!reply.is_ok() || reply.value().peer_failures != 0) {
      std::fprintf(stderr, "publish v%d failed\n", version);
      return 1;
    }
  }
  std::printf("published ppo-sha v1, v2 through A (replicated to B)\n");

  // --- Late joiner: catch-up over kSyncRequest/kSyncOffer -------------------
  auto registry_c = std::make_shared<serve::ModelRegistry>();
  auto eval_c = std::make_shared<runtime::EvalService>();
  net::ServeNode node_c(registry_c, eval_c, {});
  if (!node_c.start().is_ok()) {
    std::fprintf(stderr, "node C failed to start\n");
    return 1;
  }
  node_a.add_peer(node_c.endpoint());  // future publishes now push to C too
  const auto sync = node_c.sync_from(node_a.endpoint());
  if (!sync.is_ok()) {
    std::fprintf(stderr, "catch-up failed: %s\n", sync.message().c_str());
    return 1;
  }
  std::printf("C joined late: pulled %zu models, fetched %zu blobs (%llu bytes)\n",
              sync.value().peer_models, sync.value().fetched,
              static_cast<unsigned long long>(sync.value().fetched_bytes));

  bool converged = sync.value().fetched == 2;
  for (std::uint32_t version = 1; version <= 2; ++version) {
    const auto blob_a = node_a.registry()->export_model("ppo-sha", version);
    const auto blob_b = node_b.registry()->export_model("ppo-sha", version);
    const auto blob_c = registry_c->export_model("ppo-sha", version);
    const bool identical = blob_a.is_ok() && blob_b.is_ok() && blob_c.is_ok() &&
                           blob_a.value() == blob_b.value() && blob_a.value() == blob_c.value();
    std::printf("  v%u bit-identical across A/B/C: %s\n", version, identical ? "yes" : "NO");
    converged = converged && identical;
  }
  if (!converged) return 1;

  // --- Warm-up: C's first request hits the primed cache ---------------------
  const runtime::EvalStats before = eval_c->stats();
  std::printf("C warm-up: %zu cache entries primed during catch-up\n", before.primed);
  serve::RemoteCompileClient client_c({node_c.endpoint()});
  serve::CompileRequest first;
  first.module = gsm.get();  // a training-corpus program C has never measured
  first.model = "ppo-sha";
  const auto first_response = client_c.compile(first);
  if (!first_response.is_ok()) {
    std::fprintf(stderr, "first request on C failed: %s\n", first_response.message().c_str());
    return 1;
  }
  const runtime::EvalStats after = eval_c->stats();
  const bool primed_hit = before.primed >= 2 && after.hits > before.hits &&
                          first_response.value().provenance.baseline_cycles ==
                              trainer_eval.measure(*gsm).cycles;
  std::printf("C first request: baseline %llu cycles served from primed cache: %s\n",
              static_cast<unsigned long long>(first_response.value().provenance.baseline_cycles),
              primed_hit ? "yes" : "NO");
  if (!primed_hit) return 1;

  // --- Fleet traffic + merged monitoring ------------------------------------
  auto fleet_client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{node_a.endpoint(), node_b.endpoint(),
                                       node_c.endpoint()});
  std::uint64_t issued = 1;  // C's warm-up request above is node traffic too
  for (const char* name : {"sha", "gsm", "qsort", "adpcm", "aes", "blowfish"}) {
    auto program = progen::build_chstone_like(name);
    serve::CompileRequest request;
    request.module = program.get();
    request.model = "ppo-sha";
    const auto response = fleet_client->compile(request);
    if (!response.is_ok()) {
      std::fprintf(stderr, "%s: fleet compile failed: %s\n", name, response.message().c_str());
      return 1;
    }
    ++issued;
  }

  serve::FleetMonitor monitor(fleet_client);
  const serve::FleetStats fleet = monitor.poll();
  std::printf("%s\n", serve::fleet_summary(fleet).c_str());
  std::uint64_t per_node_sum = 0;
  for (std::size_t n = 0; n < fleet.per_node.size(); ++n) {
    const auto& report = fleet.per_node[n];
    if (!report.reachable) {
      std::fprintf(stderr, "node %zu unreachable: %s\n", n, report.error.c_str());
      return 1;
    }
    // Each report is the node's registry snapshot; read instruments by name.
    const obs::MetricsSnapshot& s = report.stats;
    const std::uint64_t completed = s.counter("serve_requests_completed");
    const obs::HistogramSnapshot* hist = s.histogram("serve_latency_ms");
    const serve::LatencyQuantiles latency =
        hist != nullptr ? serve::latency_view(*hist) : serve::LatencyQuantiles{};
    const auto gauge = [&s](const char* name) {
      return s.gauge(name) != nullptr ? s.gauge(name)->sum : 0.0;
    };
    per_node_sum += completed;
    std::printf("  node %c: completed=%llu p50=%.2fms p95=%.2fms primed=%.0f models=%.0f\n",
                static_cast<char>('A' + n), static_cast<unsigned long long>(completed),
                latency.p50_ms, latency.p95_ms, gauge("eval_cache_primed"),
                gauge("registry_artifacts"));
  }
  const bool counts_match = per_node_sum == issued && fleet.completed == issued;
  std::printf("per-node completions sum to client-observed total (%llu): %s\n",
              static_cast<unsigned long long>(issued), counts_match ? "yes" : "NO");
  const bool converged_fleet = fleet.models_min == fleet.models_max;
  std::printf("fleet registries converged (models %llu..%llu): %s\n",
              static_cast<unsigned long long>(fleet.models_min),
              static_cast<unsigned long long>(fleet.models_max),
              converged_fleet ? "yes" : "NO");
  return counts_match && converged_fleet ? 0 : 1;
}
