// Chaos/property suite for gossip replication over the deterministic
// network simulator (net/sim_transport.hpp). Runs the *production*
// anti-entropy protocol (net::GossipCore over real encoded frames) through
// seeded drops, duplication, reordering, torn frames, and partitions, and
// pins down the three properties the fleet depends on:
//
//   1. convergence — any fleet whose links eventually deliver converges to
//      bit-identical registries, with no operator sync_from call;
//   2. replayability — the same seed replays the same scenario byte for
//      byte (the simulator trace is the proof artifact);
//   3. integrity — no injected truncation/corruption ever lands a torn
//      blob in any registry: frames and artifact blobs are checksummed, so
//      damage is rejected at a boundary, never imported.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/membership.hpp"
#include "net/sim_fleet.hpp"
#include "net/sim_transport.hpp"
#include "net/wire.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace autophase {
namespace {

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

// The fleet harness (nodes, sweep scheduler, digests) is shared with
// bench/gossip_convergence — net/sim_fleet.hpp — so the bench measures
// exactly the protocol this suite pins down.
using net::SimFleet;
using net::tiny_sim_artifact;

/// Chaos fixture: a failing run dumps the structured log ring (the gossip
/// and serve components AP_CLOG their trouble), so a flaky convergence
/// failure in CI reports what the fleet was doing — no rerun needed.
class SimGossip : public ::testing::Test {
 protected:
  void SetUp() override { clear_recent_logs(); }
  void TearDown() override {
    if (HasFailure()) {
      std::cerr << "---- recent structured logs (newest last) ----\n"
                << format_recent_logs() << "---------------------------------------------\n";
    }
  }
};

/// Every blob in every registry must re-serialize to one of the published
/// originals, bit for bit — the no-torn-blob invariant under fault injection.
void expect_all_blobs_intact(const SimFleet& fleet,
                             const std::set<std::uint64_t>& published_checksums) {
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    for (const auto& key : fleet.nodes[i]->registry->list()) {
      auto blob = fleet.nodes[i]->registry->export_model(key.name, key.version);
      ASSERT_TRUE(blob.is_ok());
      EXPECT_TRUE(published_checksums.count(fnv1a(blob.value())) > 0)
          << "node " << i << " holds a blob (" << key.name << " v" << key.version
          << ") that matches no published artifact";
    }
  }
}

// ---------------------------------------------------------------------------
// Convergence under partitions + loss
// ---------------------------------------------------------------------------

TEST_F(SimGossip, CleanLinksConvergeAFleetFromOnePublisher) {
  SimFleet fleet(5, /*seed=*/1);
  fleet.nodes[0]->registry->publish("agent", tiny_sim_artifact(1));
  const std::size_t sweeps = fleet.sweeps_until_converged(32);
  EXPECT_LE(sweeps, 32u) << "clean 5-node fleet failed to converge";
  // Bit-identity, the long way: export and compare actual bytes too.
  const auto base = fleet.nodes[0]->registry->export_model("agent", 1);
  ASSERT_TRUE(base.is_ok());
  for (std::size_t i = 1; i < fleet.nodes.size(); ++i) {
    auto blob = fleet.nodes[i]->registry->export_model("agent", 1);
    ASSERT_TRUE(blob.is_ok()) << "node " << i;
    EXPECT_EQ(blob.value(), base.value()) << "node " << i;
  }
}

TEST_F(SimGossip, PullVolunteersInventoryAndPushesWhatThePeerLacks) {
  SimFleet fleet(2, /*seed=*/7);
  fleet.nodes[0]->registry->publish("agent", tiny_sim_artifact(1));
  const auto blob = fleet.nodes[0]->registry->export_model("agent", 1);
  ASSERT_TRUE(blob.is_ok());

  // Node 0 pulls from a peer that holds nothing: there is nothing to fetch,
  // but the peer answers the volunteered inventory with a wants list and
  // node 0 ships the model in the same round.
  auto report = fleet.nodes[0]->core.pull_from(*fleet.nodes[0]->transport,
                                               fleet.nodes[1]->endpoint);
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().fetched, 0u);
  EXPECT_EQ(report.value().pushed, 1u);
  EXPECT_EQ(report.value().pushed_bytes, blob.value().size());
  const auto pushed = fleet.nodes[1]->registry->export_model("agent", 1);
  ASSERT_TRUE(pushed.is_ok());
  EXPECT_EQ(pushed.value(), blob.value());
}

TEST_F(SimGossip, NineNodesConvergeThroughThreeWayPartitionAndTenPercentLoss) {
  net::SimFaultConfig faults;
  faults.drop = 0.10;
  SimFleet fleet(9, /*seed=*/42, faults);

  // Sever the fleet three ways, then publish distinct models into distinct
  // partitions — no group can learn of the others' models yet.
  fleet.world.partition({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
  fleet.nodes[0]->registry->publish("alpha", tiny_sim_artifact(1));
  fleet.nodes[3]->registry->publish("beta", tiny_sim_artifact(2));
  fleet.nodes[6]->registry->publish("gamma", tiny_sim_artifact(3));

  std::set<std::uint64_t> published;
  for (const auto* node : {fleet.nodes[0].get(), fleet.nodes[3].get(), fleet.nodes[6].get()}) {
    for (const net::ModelSummary& m : node->core.inventory()) published.insert(m.blob_checksum);
  }
  ASSERT_EQ(published.size(), 3u);

  for (int sweep = 0; sweep < 6; ++sweep) fleet.gossip_sweep();
  EXPECT_FALSE(fleet.converged()) << "partitioned groups must not share models";
  // Partition-local convergence is possible, global is not: no registry may
  // hold all three models while the partition stands.
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    EXPECT_LT(fleet.nodes[i]->registry->size(), 3u) << "node " << i << " crossed the partition";
  }

  // Heal, keep the 10% loss, and let pure gossip do the rest: every node
  // must reach all three models within a bounded number of sweeps, with
  // zero operator sync_from calls.
  fleet.world.heal();
  const std::size_t sweeps = fleet.sweeps_until_converged(48);
  EXPECT_LE(sweeps, 48u) << "healed fleet failed to converge under 10% loss";
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    EXPECT_EQ(fleet.nodes[i]->registry->size(), 3u) << "node " << i;
  }
  expect_all_blobs_intact(fleet, published);
  EXPECT_GT(fleet.world.counters().dropped, 0u) << "loss injection never fired";
  EXPECT_GT(fleet.world.counters().partitioned, 0u) << "partition never refused an exchange";
}

// ---------------------------------------------------------------------------
// Determinism: same seed, same bytes
// ---------------------------------------------------------------------------

struct ScenarioResult {
  std::string trace;
  std::string digests;
  std::uint64_t wire_bytes = 0;
  bool converged = false;
};

/// The full partition-heal-converge scenario as a pure function of the seed.
ScenarioResult run_partition_scenario(std::uint64_t seed) {
  net::SimFaultConfig faults;
  faults.drop = 0.10;
  faults.duplicate = 0.05;
  faults.delay = 0.05;
  SimFleet fleet(6, seed, faults);
  fleet.world.partition({{1, 2, 3}, {4, 5, 6}});
  fleet.nodes[0]->registry->publish("alpha", tiny_sim_artifact(1));
  fleet.nodes[3]->registry->publish("beta", tiny_sim_artifact(2));
  for (int sweep = 0; sweep < 4; ++sweep) fleet.gossip_sweep();
  fleet.world.heal();
  ScenarioResult result;
  result.converged = fleet.sweeps_until_converged(40) <= 40;
  result.trace = fleet.world.trace();
  result.wire_bytes = fleet.world.counters().wire_bytes;
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) result.digests += fleet.digest(i);
  return result;
}

TEST_F(SimGossip, SameSeedReplaysByteIdentically) {
  const ScenarioResult a = run_partition_scenario(7);
  const ScenarioResult b = run_partition_scenario(7);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  // The whole scenario — every latency draw, drop, duplication, stale
  // re-delivery, payload checksum — replays byte for byte.
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_FALSE(a.trace.empty());

  // And the seed is live: a different seed produces a different schedule.
  const ScenarioResult c = run_partition_scenario(8);
  EXPECT_NE(a.trace, c.trace);
}

// ---------------------------------------------------------------------------
// Integrity under torn frames, duplication, reordering
// ---------------------------------------------------------------------------

TEST_F(SimGossip, InjectedTruncationAndCorruptionNeverLandATornBlob) {
  net::SimFaultConfig faults;
  faults.drop = 0.05;
  faults.truncate = 0.12;
  faults.corrupt = 0.12;
  SimFleet fleet(5, /*seed=*/1234, faults);
  fleet.nodes[0]->registry->publish("alpha", tiny_sim_artifact(1));
  fleet.nodes[2]->registry->publish("beta", tiny_sim_artifact(2));

  std::set<std::uint64_t> published;
  for (const auto* node : {fleet.nodes[0].get(), fleet.nodes[2].get()}) {
    for (const net::ModelSummary& m : node->core.inventory()) published.insert(m.blob_checksum);
  }

  // Integrity must hold at every step, not just at the end.
  for (int sweep = 0; sweep < 60 && !fleet.converged(); ++sweep) {
    fleet.gossip_sweep();
    expect_all_blobs_intact(fleet, published);
  }
  EXPECT_TRUE(fleet.converged()) << "fleet failed to converge under torn-frame injection";
  EXPECT_GT(fleet.world.counters().torn, 0u) << "torn-frame injection never fired";
}

TEST_F(SimGossip, DuplicationAndStaleRedeliveryStayIdempotent) {
  net::SimFaultConfig faults;
  faults.duplicate = 0.30;
  faults.delay = 0.20;
  SimFleet fleet(4, /*seed=*/99, faults);
  fleet.nodes[0]->registry->publish("alpha", tiny_sim_artifact(1));
  fleet.nodes[1]->registry->publish("beta", tiny_sim_artifact(2));

  const std::size_t sweeps = fleet.sweeps_until_converged(40);
  EXPECT_LE(sweeps, 40u);
  EXPECT_GT(fleet.world.counters().duplicated, 0u) << "duplication injection never fired";
  EXPECT_GT(fleet.world.counters().delayed, 0u) << "delay injection never fired";
  // Duplicated handling and stale re-deliveries must not mint versions:
  // every registry holds exactly alpha v1 and beta v1, nothing else.
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    EXPECT_EQ(fleet.nodes[i]->registry->size(), 2u) << "node " << i;
    EXPECT_NE(fleet.nodes[i]->registry->get("alpha", 1), nullptr) << "node " << i;
    EXPECT_NE(fleet.nodes[i]->registry->get("beta", 1), nullptr) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Node churn during a canary rollout
// ---------------------------------------------------------------------------

TEST_F(SimGossip, NodeChurnDuringCanaryRolloutNeverResurrectsARolledBackCanary) {
  net::SimFaultConfig faults;
  faults.drop = 0.10;
  SimFleet fleet(5, /*seed=*/2026, faults);
  const auto port = [&](std::size_t i) { return fleet.nodes[i]->endpoint.port; };
  const auto weights = [&](std::size_t i, const char* name, std::int64_t version) {
    auto artifact = fleet.nodes[i]->registry->get(name, version);
    return artifact == nullptr ? std::vector<double>{} : artifact->policy.flatten();
  };

  // Incumbent v1 plus a first canary reach the whole fleet — including node
  // 4, which is about to crash while holding that canary.
  const serve::PolicyArtifact doomed = tiny_sim_artifact(66);
  fleet.nodes[0]->registry->publish("agent", tiny_sim_artifact(1));
  fleet.nodes[0]->registry->publish("agent-canary", doomed);
  ASSERT_LE(fleet.sweeps_until_converged(64), 64u) << "fleet never reached the v1 baseline";

  // Node 4 dies mid-rollout. To its peers a crashed process IS a partition
  // of one; its registry survives as its on-disk state for the restart.
  fleet.world.partition({{port(0), port(1), port(2), port(3)}});

  // While it is down the experiment concludes on the live majority: the
  // first canary is ROLLED BACK (a rollback publishes nothing — the base
  // name simply never gets those weights), a retrained canary v2 wins, and
  // promotion republishes the winner's weights under the base name as v2.
  const serve::PolicyArtifact winner = tiny_sim_artifact(77);
  fleet.nodes[0]->registry->publish("agent-canary", winner);
  fleet.nodes[0]->registry->publish("agent", winner);
  for (int sweep = 0; sweep < 24; ++sweep) fleet.gossip_sweep();

  // The dead node is frozen in the pre-decision world: base name still at
  // v1, the doomed canary still its latest "agent-canary".
  EXPECT_EQ(fleet.nodes[4]->registry->get("agent", 0)->version, 1u);
  EXPECT_EQ(weights(4, "agent-canary", 0), doomed.policy.flatten());
  EXPECT_FALSE(fleet.converged());

  // Restart: the node rejoins mid-gossip with its stale state and must
  // converge to the promoted world purely via anti-entropy pulls.
  fleet.world.heal();
  ASSERT_LE(fleet.sweeps_until_converged(64), 64u) << "restarted node never caught up";

  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    // Every node — the restarted one included — serves promoted v2 weights
    // under the base name...
    auto latest = fleet.nodes[i]->registry->get("agent", 0);
    ASSERT_NE(latest, nullptr) << "node " << i;
    EXPECT_EQ(latest->version, 2u) << "node " << i;
    EXPECT_EQ(latest->policy.flatten(), winner.policy.flatten()) << "node " << i;
    // ...and no base-name version anywhere carries the rolled-back weights:
    // a rolled-back canary must never become (or come back as) the default,
    // no matter what stale replicas rejoin with.
    for (const auto& key : fleet.nodes[i]->registry->list()) {
      if (key.name != "agent") continue;
      EXPECT_NE(weights(i, "agent", static_cast<std::int64_t>(key.version)),
                doomed.policy.flatten())
          << "node " << i << " resurrected the rolled-back canary as agent v" << key.version;
    }
  }
  EXPECT_GT(fleet.world.counters().partitioned, 0u) << "the crash never refused an exchange";
}

// ---------------------------------------------------------------------------
// SWIM membership: precedence, refutation, codec
// ---------------------------------------------------------------------------

TEST(Membership, RumorPrecedenceFollowsSwim) {
  net::MembershipTable table({"sim", 1});
  const net::RemoteEndpoint peer{"sim", 2};
  table.add_peer(peer);
  ASSERT_EQ(table.state_of(peer), net::MemberState::kAlive);

  // Suspicion is news at the same incarnation; a same-incarnation alive
  // rumor is stale health and must NOT clear it.
  table.apply({peer, 0, net::MemberState::kSuspect});
  EXPECT_EQ(table.state_of(peer), net::MemberState::kSuspect);
  table.apply({peer, 0, net::MemberState::kAlive});
  EXPECT_EQ(table.state_of(peer), net::MemberState::kSuspect);

  // The suspected node refutes by re-asserting alive at a higher incarnation.
  table.apply({peer, 1, net::MemberState::kAlive});
  EXPECT_EQ(table.state_of(peer), net::MemberState::kAlive);

  // Dead absorbs everything at its incarnation...
  table.apply({peer, 1, net::MemberState::kDead});
  table.apply({peer, 1, net::MemberState::kAlive});
  table.apply({peer, 1, net::MemberState::kSuspect});
  EXPECT_EQ(table.state_of(peer), net::MemberState::kDead);

  // ...and only a strictly higher-incarnation alive (a restarted process
  // announcing itself) resurrects it.
  net::MembershipDelta delta;
  table.apply({peer, 2, net::MemberState::kAlive}, &delta);
  EXPECT_EQ(table.state_of(peer), net::MemberState::kAlive);
  ASSERT_EQ(delta.newly_alive.size(), 1u);
  EXPECT_EQ(delta.newly_alive[0].port, peer.port);
}

TEST(Membership, SelfObituaryIsRefutedOnSight) {
  net::MembershipTable table({"sim", 1});
  net::MembershipDelta delta;
  table.apply({{"sim", 1}, 5, net::MemberState::kDead}, &delta);
  EXPECT_TRUE(delta.refuted_self);
  // The bump outranks the obituary, so the refutation wins as it spreads.
  EXPECT_GT(table.self_incarnation(), 5u);
  EXPECT_EQ(table.state_of({"sim", 1}), net::MemberState::kAlive);
}

TEST(Membership, RumorCodecRoundTripsAndBoundsHostileCounts) {
  std::vector<net::MemberRumor> rumors = {
      {{"sim", 1}, 3, net::MemberState::kAlive},
      {{"sim", 2}, 0, net::MemberState::kSuspect},
      {{"hostname.example", 40'000}, 9, net::MemberState::kDead},
  };
  std::vector<net::MemberRumor> decoded;
  ASSERT_TRUE(net::decode_member_rumors(net::encode_member_rumors(rumors), decoded).is_ok());
  ASSERT_EQ(decoded.size(), rumors.size());
  for (std::size_t i = 0; i < rumors.size(); ++i) {
    EXPECT_EQ(decoded[i].endpoint.host, rumors[i].endpoint.host) << i;
    EXPECT_EQ(decoded[i].endpoint.port, rumors[i].endpoint.port) << i;
    EXPECT_EQ(decoded[i].incarnation, rumors[i].incarnation) << i;
    EXPECT_EQ(decoded[i].state, rumors[i].state) << i;
  }

  // A hostile count far beyond the remaining bytes must fail before any
  // allocation, not OOM the decoder.
  std::vector<net::MemberRumor> bombed;
  EXPECT_FALSE(net::decode_member_rumors(std::string(8, '\xff'), bombed).is_ok());
}

// ---------------------------------------------------------------------------
// Node churn: kill / restart / replace under load
// ---------------------------------------------------------------------------

bool survivors_agree_dead(const SimFleet& fleet, const net::RemoteEndpoint& endpoint) {
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    if (fleet.down(i)) continue;
    if (fleet.nodes[i]->membership->state_of(endpoint) != net::MemberState::kDead) return false;
  }
  return true;
}

bool survivors_agree_alive(const SimFleet& fleet, const net::RemoteEndpoint& endpoint) {
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    if (fleet.down(i)) continue;
    if (fleet.nodes[i]->membership->state_of(endpoint) != net::MemberState::kAlive) return false;
  }
  return true;
}

TEST_F(SimGossip, KilledNodeIsConfirmedDeadAndNeverProbedAgain) {
  net::SimFaultConfig faults;
  faults.drop = 0.10;
  SimFleet fleet(6, /*seed=*/11, faults);
  fleet.enable_membership({.suspect_after_failures = 1, .confirm_after_rounds = 2});
  fleet.nodes[0]->registry->publish("agent", tiny_sim_artifact(1));
  ASSERT_LE(fleet.sweeps_until_converged(48), 48u);

  // Kill node 5 and keep load flowing: a new publish must still reach every
  // survivor while the fleet re-forms around the corpse.
  const net::RemoteEndpoint corpse = fleet.nodes[5]->endpoint;
  fleet.kill(5);
  fleet.nodes[1]->registry->publish("beta", tiny_sim_artifact(2));

  std::size_t sweep = 1;
  for (; sweep <= 96; ++sweep) {
    fleet.gossip_sweep();
    if (survivors_agree_dead(fleet, corpse) && fleet.membership_converged() &&
        fleet.converged()) {
      break;
    }
  }
  ASSERT_LE(sweep, 96u) << "survivors never converged on the kill";
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(fleet.nodes[i]->registry->size(), 2u) << "node " << i << " missed the churn publish";
  }

  // Zero requests to a confirmed-dead peer: once every survivor holds the
  // dead record, the eligible set excludes the corpse, so further sweeps
  // burn no timeouts against it.
  const std::uint64_t refused = fleet.world.counters().node_down;
  EXPECT_GT(refused, 0u) << "suspicion was never fed by a failed probe";
  for (int extra = 0; extra < 12; ++extra) fleet.gossip_sweep();
  EXPECT_EQ(fleet.world.counters().node_down, refused)
      << "a survivor kept routing gossip at a confirmed-dead peer";
}

TEST_F(SimGossip, RestartedNodeRefutesItsObituaryAndCatchesUp) {
  net::SimFaultConfig faults;
  faults.drop = 0.05;
  SimFleet fleet(5, /*seed=*/21, faults);
  fleet.enable_membership({.suspect_after_failures = 1, .confirm_after_rounds = 2});
  fleet.nodes[0]->registry->publish("agent", tiny_sim_artifact(1));
  ASSERT_LE(fleet.sweeps_until_converged(48), 48u);

  const net::RemoteEndpoint target = fleet.nodes[4]->endpoint;
  fleet.kill(4);
  std::size_t sweep = 1;
  for (; sweep <= 96; ++sweep) {
    fleet.gossip_sweep();
    if (survivors_agree_dead(fleet, target) && fleet.membership_converged()) break;
  }
  ASSERT_LE(sweep, 96u) << "survivors never confirmed the death";

  // A publish lands while the node is down — the catch-up payload.
  fleet.nodes[0]->registry->publish("beta", tiny_sim_artifact(2));

  // Restart with on-disk state intact. The fleet holds its obituary; the
  // node's first contact returns that rumor, the table bumps past it, and
  // the alive re-assertion cancels the obituary as it spreads — while the
  // ordinary kSyncRequest pulls fetch everything it missed.
  fleet.restart(4);
  for (sweep = 1; sweep <= 96; ++sweep) {
    fleet.gossip_sweep();
    if (survivors_agree_alive(fleet, target) && fleet.membership_converged() &&
        fleet.converged()) {
      break;
    }
  }
  ASSERT_LE(sweep, 96u) << "restarted node never rejoined";
  EXPECT_GE(fleet.nodes[4]->membership->self_incarnation(), 1u)
      << "rejoin must bump the incarnation past the obituary";
  EXPECT_NE(fleet.nodes[4]->registry->get("beta", 1), nullptr)
      << "restarted node never caught up on the missed publish";
}

TEST_F(SimGossip, ReplacedNodeRejoinsEmptyAndRebuildsViaAntiEntropy) {
  SimFleet fleet(5, /*seed=*/33);
  fleet.enable_membership({.suspect_after_failures = 1, .confirm_after_rounds = 2});
  fleet.nodes[0]->registry->publish("agent", tiny_sim_artifact(1));
  fleet.nodes[1]->registry->publish("beta", tiny_sim_artifact(2));
  ASSERT_LE(fleet.sweeps_until_converged(48), 48u);

  const net::RemoteEndpoint target = fleet.nodes[2]->endpoint;
  fleet.kill(2);
  std::size_t sweep = 1;
  for (; sweep <= 96; ++sweep) {
    fleet.gossip_sweep();
    if (survivors_agree_dead(fleet, target) && fleet.membership_converged()) break;
  }
  ASSERT_LE(sweep, 96u) << "survivors never confirmed the death";

  // Fresh process at the same endpoint: empty registry, membership at
  // incarnation 0 — strictly weaker than the fleet's dead record, so only
  // the refutation bump can resurrect it.
  fleet.replace(2);
  for (sweep = 1; sweep <= 96; ++sweep) {
    fleet.gossip_sweep();
    if (survivors_agree_alive(fleet, target) && fleet.membership_converged() &&
        fleet.converged()) {
      break;
    }
  }
  ASSERT_LE(sweep, 96u) << "replacement never rejoined";
  EXPECT_EQ(fleet.nodes[2]->registry->size(), 2u) << "replacement never rebuilt the registry";
  EXPECT_GE(fleet.nodes[2]->membership->self_incarnation(), 1u);
}

TEST_F(SimGossip, TransientPartitionSuspectsThenRefutesWithoutConfirmingDeath) {
  SimFleet fleet(5, /*seed=*/31);
  // Quick to suspect, slow to confirm: the refutation must win the race.
  fleet.enable_membership({.suspect_after_failures = 1, .confirm_after_rounds = 16});
  fleet.nodes[0]->registry->publish("agent", tiny_sim_artifact(1));
  ASSERT_LE(fleet.sweeps_until_converged(48), 48u);

  const auto port = [&](std::size_t i) { return fleet.nodes[i]->endpoint.port; };
  const net::RemoteEndpoint target = fleet.nodes[4]->endpoint;

  // Node 4 goes unreachable briefly (a GC pause, not a crash).
  fleet.world.partition({{port(0), port(1), port(2), port(3)}});
  for (int s = 0; s < 6; ++s) fleet.gossip_sweep();
  bool suspected = false;
  for (std::size_t i = 0; i < 4; ++i) {
    suspected |= fleet.nodes[i]->membership->state_of(target) == net::MemberState::kSuspect;
  }
  EXPECT_TRUE(suspected) << "six sweeps of failed probes never raised a suspicion";

  // Heal: the suspected node sees its own suspect rumor, bumps, re-asserts
  // alive — and nobody ever confirms a death along the way.
  fleet.world.heal();
  std::size_t sweep = 1;
  for (; sweep <= 48; ++sweep) {
    fleet.gossip_sweep();
    for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
      ASSERT_EQ(fleet.nodes[i]->membership->dead_count(), 0u)
          << "node " << i << " confirmed a death during a transient suspicion";
    }
    if (survivors_agree_alive(fleet, target) && fleet.membership_converged()) break;
  }
  ASSERT_LE(sweep, 48u) << "suspicion was never refuted";
  EXPECT_GE(fleet.nodes[4]->membership->self_incarnation(), 1u)
      << "refutation must bump the incarnation";
}

/// The kill-restart churn story as a pure function of the seed: membership
/// history replays byte for byte, like every other simulator scenario.
struct ChurnResult {
  std::string trace;
  std::string membership;
  std::string digests;
};

ChurnResult run_churn_scenario(std::uint64_t seed) {
  net::SimFaultConfig faults;
  faults.drop = 0.10;
  faults.duplicate = 0.05;
  SimFleet fleet(5, seed, faults);
  fleet.enable_membership({.suspect_after_failures = 1, .confirm_after_rounds = 2});
  fleet.nodes[0]->registry->publish("agent", tiny_sim_artifact(1));
  (void)fleet.sweeps_until_converged(48);
  fleet.kill(3);
  for (int s = 0; s < 24; ++s) fleet.gossip_sweep();
  fleet.restart(3);
  for (int s = 0; s < 24; ++s) fleet.gossip_sweep();
  ChurnResult result;
  result.trace = fleet.world.trace();
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    result.membership += fleet.nodes[i]->membership->digest();
    result.digests += fleet.digest(i);
  }
  return result;
}

TEST_F(SimGossip, ChurnScenarioReplaysByteIdentically) {
  const ChurnResult a = run_churn_scenario(5);
  const ChurnResult b = run_churn_scenario(5);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.membership, b.membership);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_FALSE(a.membership.empty());

  const ChurnResult c = run_churn_scenario(6);
  EXPECT_NE(a.trace, c.trace);
}

// ---------------------------------------------------------------------------
// Frame-decoder robustness (seeded mutation fuzz)
// ---------------------------------------------------------------------------

/// Seeded mutations of valid frames must never yield a frame whose payload
/// differs from the original: any mutation either hits the payload (and the
/// FNV-1a checksum rejects it), or hits header/checksum bytes (rejected by
/// magic/version/type/length validation), or touches only the request id —
/// in which case the payload still decodes intact. Regression-pins the
/// hostile-input hardening of the wire protocol: no crash, no over-read
/// (ASan-checked in CI), no torn payload accepted.
TEST(FrameFuzz, SeededMutationsNeverYieldATornPayload) {
  Rng rng(2026);
  const std::vector<std::string> payloads = {
      "", "x", std::string(3, '\0'), std::string(257, 'a'),
      net::encode_sync_request({net::SyncMode::kInventory, {}})};
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t round = 0; round < 4000; ++round) {
    net::Frame frame;
    frame.type = net::MsgType::kSyncRequest;
    frame.request_id = round;
    frame.payload = payloads[round % payloads.size()];
    std::string bytes = net::encode_frame(frame);

    const int mutation = static_cast<int>(rng.uniform_int(0, 3));
    switch (mutation) {
      case 0: {  // single bit flip anywhere
        const auto bit = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) * 8 - 1));
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1u << (bit % 8)));
        break;
      }
      case 1: {  // length lie: overwrite the payload-length header field
        // Header layout: magic u32, version u32, type u8, request id u64,
        // then the payload length at offset 17.
        const std::uint64_t lie = rng.next();
        for (int b = 0; b < 8; ++b) {
          bytes[17 + b] = static_cast<char>((lie >> (8 * b)) & 0xff);
        }
        break;
      }
      case 2: {  // checksum corruption: flip a bit in the trailing 8 bytes
        const auto at = bytes.size() - 8 + static_cast<std::size_t>(rng.uniform_int(0, 7));
        bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
        break;
      }
      default: {  // truncation at a random offset
        bytes.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1)));
        break;
      }
    }

    std::string buffer = bytes;
    net::Frame out;
    std::string error;
    const net::FrameParse parsed = net::try_parse_frame(buffer, out, error);
    if (parsed == net::FrameParse::kFrame) {
      ++accepted;
      // Accepted despite mutation ⇒ only header identity bits (request id,
      // a type that is still known, a still-supported version) changed; the
      // payload must be byte-identical (checksum-protected).
      EXPECT_EQ(out.payload, frame.payload) << "round " << round;
    } else {
      ++rejected;
      if (parsed == net::FrameParse::kError) {
        EXPECT_FALSE(error.empty()) << "round " << round;
      }
    }
  }
  // The fuzz must actually exercise both paths to mean anything.
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(accepted, 50u);
}

}  // namespace
}  // namespace autophase
