// Fleet-wide observability: one place that answers "what is the cluster
// doing?". A FleetMonitor fans kStats requests out through a
// RemoteCompileClient, decodes every node's metrics-registry snapshot, and
// merges them generically into a FleetStats snapshot — counters and
// histograms sum, gauges keep sum, min and max. Latency percentiles come from
// the *bucket-summed* per-node histograms (averaging per-node p95s is
// statistically meaningless; summing identically-specced buckets is exact,
// order-independent, and O(buckets) on the wire with no truncation). The
// typed FleetStats fields are views read by name from the merged snapshot,
// so an instrument a node adds reaches the fleet view with no wire change.
// Snapshots are versioned: each poll() increments a monotonic id, so two
// observers can order the snapshots they hold.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "serve/compile_service.hpp"
#include "serve/remote_client.hpp"

namespace autophase::serve {

/// One node's slice of a fleet snapshot. An unreachable node keeps its slot
/// (index == client node index) with `reachable == false` and the transport
/// error — a monitor must report a dead node, not silently shrink the fleet.
struct FleetNodeReport {
  net::RemoteEndpoint endpoint;
  bool reachable = false;
  std::string error;          // transport/decode failure when unreachable
  obs::MetricsSnapshot stats;  // the node's registry; meaningful only when reachable
};

struct FleetStats {
  /// Monotonic per monitor instance; later polls have larger versions.
  std::uint64_t snapshot_version = 0;
  std::size_t nodes = 0;
  std::size_t reachable = 0;
  /// nodes - reachable, split out so operators never re-derive it. Per-node
  /// *rates* divide by `reachable`, never by the configured fleet size — a
  /// half-dead fleet must not report a halved per-node load as healthy.
  std::size_t nodes_unreachable = 0;

  /// Every reachable node's snapshot, merged; the fields below read it by name.
  obs::MetricsSnapshot metrics;

  // Summed serving counters across reachable nodes.
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t queue_depth = 0;
  /// Overload-control sheds, summed across reachable nodes:
  /// queue-saturation sheds and deadline-expired-while-queued sheds.
  std::uint64_t shed_overload = 0;
  std::uint64_t shed_deadline = 0;
  /// completed / reachable — mean serving load per *responding* node.
  double completed_per_reachable = 0.0;

  // Summed EvalService counters (the fleet's "Samples" economy).
  std::uint64_t eval_hits = 0;
  std::uint64_t eval_misses = 0;
  std::uint64_t eval_sequence_hits = 0;
  std::uint64_t eval_primed = 0;

  /// Registry sizes: min == max on a converged fleet; a spread means some
  /// node is missing versions and gossip has not repaired it yet.
  std::uint64_t models_min = 0;
  std::uint64_t models_max = 0;

  /// Gossip health: anti-entropy rounds and blobs pulled, summed across
  /// reachable nodes, plus the *stalest* reachable node's last-sync age —
  /// net::kNeverSynced when some reachable node has never completed a pull,
  /// on fleets running without gossip, and on snapshots with zero reachable
  /// nodes, so a wedged gossip loop (or a dead fleet) shows up as unbounded
  /// staleness, never as a healthy-looking zero.
  std::uint64_t gossip_rounds = 0;
  std::uint64_t gossip_fetched = 0;
  std::uint64_t last_sync_age_ms_max = net::kNeverSynced;

  /// Membership consensus across reachable nodes: the minimum
  /// alive count (the most pessimistic node's view) and the maximum
  /// suspect/dead counts. A converged healthy fleet reports
  /// members_alive_min == fleet size and zeros for the other two.
  std::uint64_t members_alive_min = 0;
  std::uint64_t members_suspect_max = 0;
  std::uint64_t members_dead_max = 0;

  /// Online-learning loop health, summed across reachable nodes: promotion
  /// decisions recorded (kCanary controls) and the provenance backlog a
  /// collector has yet to drain / has already lost to bounded logs.
  std::uint64_t learn_promoted = 0;
  std::uint64_t learn_rolled_back = 0;
  std::uint64_t provenance_pending = 0;
  std::uint64_t provenance_dropped = 0;

  /// Bucket-wise sum of every reachable node's latency histogram, and the
  /// latency_view() quantiles over it. `latency_samples` is the merged
  /// histogram's total count (every request the fleet ever served).
  obs::HistogramSnapshot latency_hist;
  LatencyQuantiles latency;
  std::size_t latency_samples = 0;

  /// Key-wise sums over nodes, sorted by (model, version) / objective.
  std::vector<ModelVersionStats> per_model;
  std::array<std::uint64_t, kNumObjectives> objective_completed{};

  std::vector<FleetNodeReport> per_node;
};

/// One-line human summary ("nodes 3/3 completed=42 p50=1.2ms p95=3.4ms ...")
/// for demo output and CI job logs.
std::string fleet_summary(const FleetStats& stats);

class FleetMonitor {
 public:
  explicit FleetMonitor(std::shared_ptr<RemoteCompileClient> client);

  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  /// Queries every node (concurrently — a slow node delays the snapshot by
  /// one timeout, not one timeout per node) and merges the replies. Never
  /// fails as a whole: unreachable nodes are reported per-node.
  FleetStats poll();

  /// The most recent snapshot (empty, version 0, before the first poll).
  [[nodiscard]] FleetStats last() const;

 private:
  std::shared_ptr<RemoteCompileClient> client_;

  mutable std::mutex mutex_;
  std::uint64_t next_version_ = 1;
  FleetStats last_;
};

}  // namespace autophase::serve
