// Two-node serving-cluster walkthrough: train a small PPO policy, publish it
// through node A over the wire protocol, let A replicate the stamped
// artifact to its peer B, prove both registries converged on bit-identical
// model blobs, then route compile requests across the fleet with the
// client's consistent-hash ring — and check every remote answer against
// compile_sync on the node that owns the program's cache slot, byte for
// byte.

#include <cstdio>

#include "net/server.hpp"
#include "net/wire.hpp"
#include "progen/chstone_like.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/remote_client.hpp"

using namespace autophase;

int main() {
  // --- Train (the paper's §5 loop, miniaturised) ---------------------------
  auto sha = progen::build_chstone_like("sha");
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
  std::printf("trained: %zu simulator samples\n", env.samples());

  // --- Bring up a two-node fleet on loopback -------------------------------
  net::ServeNode node_a(nullptr, nullptr, {});
  net::ServeNode node_b(nullptr, nullptr, {});
  if (!node_a.start().is_ok() || !node_b.start().is_ok()) {
    std::fprintf(stderr, "nodes failed to start\n");
    return 1;
  }
  node_a.add_peer(node_b.endpoint());
  std::printf("node A on port %u, node B on port %u (A replicates to B)\n", node_a.port(),
              node_b.port());

  // --- Publish through A; replication pushes the same version to B --------
  serve::RemoteCompileClient client({node_a.endpoint(), node_b.endpoint()});
  const auto key =
      client.publish(0, "ppo-sha", serve::make_artifact(trainer.export_policy(), env_cfg));
  if (!key.is_ok()) {
    std::fprintf(stderr, "publish failed: %s\n", key.message().c_str());
    return 1;
  }
  const auto list_a = client.list_models(0);
  const auto list_b = client.list_models(1);
  if (!list_a.is_ok() || !list_b.is_ok() || list_a.value().size() != 1 ||
      list_b.value().size() != 1) {
    std::fprintf(stderr, "model listing failed\n");
    return 1;
  }
  const bool converged =
      list_a.value()[0].version == list_b.value()[0].version &&
      list_a.value()[0].blob_checksum == list_b.value()[0].blob_checksum &&
      node_a.registry()->export_model("ppo-sha", 1).value() ==
          node_b.registry()->export_model("ppo-sha", 1).value();
  std::printf("published %s v%u; replicas converged: %s (blob checksum %016llx)\n",
              key.value().name.c_str(), key.value().version, converged ? "yes" : "NO",
              static_cast<unsigned long long>(list_a.value()[0].blob_checksum));
  if (!converged) return 1;

  // --- Route requests across the fleet -------------------------------------
  net::ServeNode* nodes[2] = {&node_a, &node_b};
  bool all_identical = true;
  for (const char* name : {"sha", "gsm", "qsort", "adpcm"}) {
    auto program = progen::build_chstone_like(name);
    serve::CompileRequest request;
    request.module = program.get();
    request.model = "ppo-sha";

    const std::size_t owner = client.route(*program);
    auto remote = client.compile(request);
    if (!remote.is_ok()) {
      std::fprintf(stderr, "%s: remote compile failed: %s\n", name, remote.message().c_str());
      return 1;
    }
    auto local = nodes[owner]->service().compile_sync(request);
    if (!local.is_ok()) {
      std::fprintf(stderr, "%s: local reference failed\n", name);
      return 1;
    }
    const bool identical = net::response_identity_bytes(remote.value()) ==
                           net::response_identity_bytes(local.value());
    all_identical = all_identical && identical;
    const serve::Provenance& p = remote.value().provenance;
    std::printf("%-8s -> node %c  passes=%zu  cycles %llu -> %llu  byte-identical: %s\n", name,
                owner == 0 ? 'A' : 'B', p.sequence.size(),
                static_cast<unsigned long long>(p.baseline_cycles),
                static_cast<unsigned long long>(p.measured_cycles), identical ? "yes" : "NO");
  }

  // --- Per-node counters show the routing split ----------------------------
  for (std::size_t n = 0; n < 2; ++n) {
    // kStats carries the node's whole registry; read instruments by name.
    const auto stats = client.node_stats(n);
    if (!stats.is_ok()) return 1;
    const obs::MetricsSnapshot& s = stats.value();
    const obs::HistogramSnapshot* hist = s.histogram("serve_latency_ms");
    const serve::LatencyQuantiles latency =
        hist != nullptr ? serve::latency_view(*hist) : serve::LatencyQuantiles{};
    const auto gauge = [&s](const char* name) {
      return s.gauge(name) != nullptr ? s.gauge(name)->sum : 0.0;
    };
    std::printf("node %c: completed=%llu p50=%.2fms p95=%.2fms eval misses=%.0f hits=%.0f\n",
                n == 0 ? 'A' : 'B',
                static_cast<unsigned long long>(s.counter("serve_requests_completed")),
                latency.p50_ms, latency.p95_ms, gauge("eval_cache_misses"),
                gauge("eval_cache_hits"));
  }
  return all_identical ? 0 : 1;
}
