// Epidemic replication walkthrough — gossip instead of owner-push:
//
//   1. Start a 5-node fleet in a chain: each node only knows the node
//      before it as a pull source, and the publishing node knows *nobody*.
//   2. Publish once through node 0. With owner-push alone the model could
//      never leave node 0 (its peer list is empty); with background gossip
//      every node's anti-entropy loop pulls from a random peer on a
//      jittered period, and the publish spreads hop by hop.
//   3. Wait for all five registries to converge, verify bit-identity the
//      hard way (exported blobs compared byte for byte), and show the
//      gossip health counters a FleetMonitor surfaces per node (rounds,
//      blobs fetched, last-sync age) — zero operator sync_from calls.
//   4. Run one traced compile through the converged fleet, scrape the
//      owning node's kMetrics exposition, and (given an output path as
//      argv[1]) dump the stitched trace as Chrome trace-event JSON —
//      openable in Perfetto.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "progen/chstone_like.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/fleet_monitor.hpp"
#include "serve/remote_client.hpp"
#include "support/str.hpp"

using namespace autophase;
using namespace std::chrono_literals;

int main(int argc, char** argv) {
  obs::tracer().set_enabled(true);  // stitched-trace demo below
  // --- A small trained artifact --------------------------------------------
  auto sha = progen::build_chstone_like("sha");
  rl::EnvConfig env_cfg;
  env_cfg.observation = rl::ObservationMode::kActionHistogram;
  env_cfg.episode_length = 4;
  rl::PhaseOrderEnv env({sha.get()}, env_cfg);
  rl::PpoConfig ppo;
  ppo.iterations = 1;
  ppo.steps_per_iteration = 16;
  ppo.hidden = {16};
  ppo.seed = 7;
  rl::PpoTrainer trainer(env, ppo);
  trainer.train();

  // --- Five nodes, chain membership, background gossip ----------------------
  constexpr std::size_t kNodes = 5;
  std::vector<std::unique_ptr<net::ServeNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    net::ServeNodeConfig config;
    config.gossip.enabled = i > 0;  // the owner never pulls (or pushes)
    config.gossip.period = 25ms;
    config.gossip.seed = i + 1;  // distinct streams desynchronise the loops
    nodes.push_back(std::make_unique<net::ServeNode>(nullptr, nullptr, config));
    if (!nodes.back()->start().is_ok()) {
      std::fprintf(stderr, "node %zu failed to start\n", i);
      return 1;
    }
    if (i > 0) nodes[i]->add_peer(nodes[i - 1]->endpoint());
  }
  std::printf("fleet: %zu nodes in a pull chain; publisher knows %zu peers\n", kNodes,
              nodes[0]->peers().size());

  // --- One publish on the peer-less owner -----------------------------------
  auto published =
      nodes[0]->publish("agent", serve::make_artifact(trainer.export_policy(), env_cfg));
  if (!published.is_ok()) {
    std::fprintf(stderr, "publish failed: %s\n", published.message().c_str());
    return 1;
  }
  std::printf("published agent v%u on node 0 (pushed to %zu peers)\n",
              published.value().version, nodes[0]->peers().size());

  // --- Gossip does the rest --------------------------------------------------
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + 30s;
  for (;;) {
    std::size_t have = 0;
    for (const auto& node : nodes) have += node->registry()->size() >= 1 ? 1 : 0;
    if (have == kNodes) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "fleet failed to converge through gossip\n");
      return 1;
    }
    std::this_thread::sleep_for(10ms);
  }
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  // Bit-identity across all replicas, compared on the exported bytes.
  const std::string golden = nodes[0]->registry()->export_model("agent", 1).value();
  for (std::size_t i = 1; i < kNodes; ++i) {
    const auto blob = nodes[i]->registry()->export_model("agent", 1);
    if (!blob.is_ok() || blob.value() != golden) {
      std::fprintf(stderr, "node %zu diverged from the published blob\n", i);
      return 1;
    }
  }
  std::printf("converged bit-identically in %lldms over %zu epidemic hops\n",
              static_cast<long long>(took.count()), kNodes - 1);

  // --- Gossip health through the fleet monitor -------------------------------
  std::vector<net::RemoteEndpoint> endpoints;
  for (const auto& node : nodes) endpoints.push_back(node->endpoint());
  auto client = std::make_shared<serve::RemoteCompileClient>(endpoints);
  serve::FleetMonitor monitor(client);
  const serve::FleetStats fleet = monitor.poll();
  std::printf("%s\n", serve::fleet_summary(fleet).c_str());
  for (std::size_t i = 0; i < fleet.per_node.size(); ++i) {
    const obs::MetricsSnapshot& s = fleet.per_node[i].stats;
    const auto gauge = [&s](const char* name) {
      return s.gauge(name) != nullptr ? s.gauge(name)->sum : 0.0;
    };
    const double age_ms = gauge("gossip_last_sync_age_ms");  // -1 = never synced
    std::printf("  node %zu: gossip rounds=%.0f fetched=%.0f last-sync=%s\n", i,
                gauge("gossip_rounds"), gauge("gossip_fetched"),
                age_ms < 0 ? "never" : strf("%.0fms", age_ms).c_str());
  }
  if (fleet.gossip_fetched < kNodes - 1) {
    std::fprintf(stderr, "expected at least %zu gossip fetches fleet-wide\n", kNodes - 1);
    return 1;
  }

  // --- One traced compile + a kMetrics scrape --------------------------------
  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  auto response = client->compile(request);
  if (!response.is_ok()) {
    std::fprintf(stderr, "traced compile failed: %s\n", response.message().c_str());
    return 1;
  }
  const std::size_t owner = client->route(*sha);
  auto scrape = client->node_metrics(owner);
  if (!scrape.is_ok() ||
      scrape.value().find("serve_requests_completed 1") == std::string::npos) {
    std::fprintf(stderr, "kMetrics scrape missing serve counters:\n%s\n",
                 scrape.is_ok() ? scrape.value().c_str() : scrape.message().c_str());
    return 1;
  }
  std::printf("kMetrics scrape of owning node %zu: %zu bytes of exposition\n", owner,
              scrape.value().size());
  std::printf("traced compile: %llu spans in the process ring\n",
              static_cast<unsigned long long>(obs::tracer().recorded()));

  if (argc > 1) {
    const Status dumped = nodes[owner]->dump_trace(argv[1]);
    if (!dumped.is_ok()) {
      std::fprintf(stderr, "trace dump failed: %s\n", dumped.message().c_str());
      return 1;
    }
    std::printf("trace sample written to %s (open in Perfetto)\n", argv[1]);
  }
  std::printf("OK: publish reached every node with zero operator sync calls\n");
  return 0;
}
