#include "serve/fleet_monitor.hpp"

#include <thread>
#include <utility>

#include "support/str.hpp"

namespace autophase::serve {

std::string fleet_summary(const FleetStats& stats) {
  std::string summary = strf(
      "fleet v%llu: nodes %zu/%zu completed=%llu failed=%llu p50=%.2fms p95=%.2fms "
      "eval hit-rate=%.2f primed=%llu models=[%llu..%llu]",
      static_cast<unsigned long long>(stats.snapshot_version), stats.reachable, stats.nodes,
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.failed), stats.latency.p50_ms, stats.latency.p95_ms,
      stats.eval_hits + stats.eval_misses + stats.eval_sequence_hits == 0
          ? 0.0
          : static_cast<double>(stats.eval_hits + stats.eval_sequence_hits) /
                static_cast<double>(stats.eval_hits + stats.eval_misses +
                                    stats.eval_sequence_hits),
      static_cast<unsigned long long>(stats.eval_primed),
      static_cast<unsigned long long>(stats.models_min),
      static_cast<unsigned long long>(stats.models_max));
  if (stats.nodes_unreachable > 0) {
    summary += strf(" unreachable=%zu per-reachable=%.1f", stats.nodes_unreachable,
                    stats.completed_per_reachable);
  }
  if (stats.shed_overload > 0 || stats.shed_deadline > 0) {
    summary += strf(" shed overload=%llu deadline=%llu",
                    static_cast<unsigned long long>(stats.shed_overload),
                    static_cast<unsigned long long>(stats.shed_deadline));
  }
  if (stats.members_suspect_max > 0 || stats.members_dead_max > 0) {
    summary += strf(" membership alive>=%llu suspect<=%llu dead<=%llu",
                    static_cast<unsigned long long>(stats.members_alive_min),
                    static_cast<unsigned long long>(stats.members_suspect_max),
                    static_cast<unsigned long long>(stats.members_dead_max));
  }
  if (stats.gossip_rounds > 0 || stats.last_sync_age_ms_max != net::kNeverSynced) {
    summary += strf(" gossip rounds=%llu fetched=%llu stalest-sync=%s",
                    static_cast<unsigned long long>(stats.gossip_rounds),
                    static_cast<unsigned long long>(stats.gossip_fetched),
                    stats.last_sync_age_ms_max == net::kNeverSynced
                        ? "never"
                        : strf("%llums",
                               static_cast<unsigned long long>(stats.last_sync_age_ms_max))
                              .c_str());
  }
  if (stats.learn_promoted > 0 || stats.learn_rolled_back > 0 || stats.provenance_pending > 0 ||
      stats.provenance_dropped > 0) {
    summary += strf(" learn promoted=%llu rolled-back=%llu provenance pending=%llu dropped=%llu",
                    static_cast<unsigned long long>(stats.learn_promoted),
                    static_cast<unsigned long long>(stats.learn_rolled_back),
                    static_cast<unsigned long long>(stats.provenance_pending),
                    static_cast<unsigned long long>(stats.provenance_dropped));
  }
  return summary;
}

namespace {

/// Gauges cross as doubles; the typed fields are whole counts. Clamped, since
/// a hostile node's value must not make the conversion undefined.
std::uint64_t whole(double v) {
  if (!(v > 0.0)) return 0;
  return v >= 0x1p64 ? ~0ull : static_cast<std::uint64_t>(v);
}

/// Fills FleetStats' typed fields from its merged snapshot, by instrument
/// name. An instrument no reachable node exposes reads as zero.
void read_typed_fields(FleetStats& fleet) {
  const obs::MetricsSnapshot& m = fleet.metrics;
  const auto gauge = [&m](const char* name) {
    const obs::GaugeSummary* g = m.gauge(name);
    return g != nullptr ? *g : obs::GaugeSummary{};
  };
  fleet.completed = m.counter("serve_requests_completed");
  fleet.failed = m.counter("serve_requests_failed");
  fleet.rejected = m.counter("serve_requests_rejected");
  fleet.queue_depth = whole(gauge("serve_queue_depth").sum);
  fleet.shed_overload = m.counter("serve_shed_overload");
  fleet.shed_deadline = m.counter("serve_shed_deadline");
  // Rates are over *responding* nodes: dividing by the configured count
  // would make a half-dead fleet look half as loaded instead of half gone.
  fleet.completed_per_reachable =
      fleet.reachable == 0
          ? 0.0
          : static_cast<double>(fleet.completed) / static_cast<double>(fleet.reachable);
  fleet.eval_hits = whole(gauge("eval_cache_hits").sum);
  fleet.eval_misses = whole(gauge("eval_cache_misses").sum);
  fleet.eval_sequence_hits = whole(gauge("eval_sequence_hits").sum);
  fleet.eval_primed = whole(gauge("eval_cache_primed").sum);
  fleet.models_min = whole(gauge("registry_artifacts").min);
  fleet.models_max = whole(gauge("registry_artifacts").max);
  fleet.gossip_rounds = whole(gauge("gossip_rounds").sum);
  fleet.gossip_fetched = whole(gauge("gossip_fetched").sum);
  // A never-synced node exposes -1, which keeps the fleet at kNeverSynced;
  // so does a snapshot with no reachable node.
  const obs::GaugeSummary* age = m.gauge("gossip_last_sync_age_ms");
  fleet.last_sync_age_ms_max =
      age == nullptr || age->min < 0.0 ? net::kNeverSynced : whole(age->max);
  fleet.members_alive_min = whole(gauge("members_alive").min);
  fleet.members_suspect_max = whole(gauge("members_suspect").max);
  fleet.members_dead_max = whole(gauge("members_dead").max);
  fleet.learn_promoted = m.counter("learn_promoted");
  fleet.learn_rolled_back = m.counter("learn_rolled_back");
  fleet.provenance_pending = whole(gauge("provenance_pending").sum);
  fleet.provenance_dropped = whole(gauge("provenance_dropped").sum);
  if (const obs::HistogramSnapshot* latency = m.histogram("serve_latency_ms")) {
    fleet.latency_hist = *latency;
  }
  fleet.latency = latency_view(fleet.latency_hist);
  fleet.latency_samples = static_cast<std::size_t>(fleet.latency_hist.count);
  fleet.per_model = per_model_breakdown(m);
  fleet.objective_completed = objective_breakdown(m);
}

}  // namespace

FleetMonitor::FleetMonitor(std::shared_ptr<RemoteCompileClient> client)
    : client_(std::move(client)) {}

FleetStats FleetMonitor::poll() {
  const std::size_t nodes = client_->node_count();
  std::vector<FleetNodeReport> reports(nodes);

  // One kStats round trip per node, concurrently: the client is thread-safe
  // and each query rides its own pooled connection.
  const auto query = [&](std::size_t n) {
    FleetNodeReport& report = reports[n];
    report.endpoint = client_->endpoints()[n];
    auto stats = client_->node_stats(n);
    if (stats.is_ok()) {
      report.reachable = true;
      report.stats = std::move(stats).value();
    } else {
      report.error = stats.message();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(nodes > 0 ? nodes - 1 : 0);
  for (std::size_t n = 1; n < nodes; ++n) workers.emplace_back(query, n);
  if (nodes > 0) query(0);
  for (std::thread& worker : workers) worker.join();

  FleetStats merged;
  merged.nodes = nodes;
  for (const FleetNodeReport& report : reports) {
    if (!report.reachable) continue;
    ++merged.reachable;
    merged.metrics += report.stats;
  }
  merged.nodes_unreachable = merged.nodes - merged.reachable;
  read_typed_fields(merged);
  merged.per_node = std::move(reports);

  const std::lock_guard<std::mutex> lock(mutex_);
  merged.snapshot_version = next_version_++;
  last_ = merged;
  return merged;
}

FleetStats FleetMonitor::last() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_;
}

}  // namespace autophase::serve
