// RemoteCompileClient: the build-farm side of the serving wire protocol.
// Holds a small connection pool per node, pipelines batches of requests over
// one connection (responses are matched by request id, so they may return in
// any order), enforces per-request deadlines, and routes every compile
// request by consistent-hashing its program fingerprint onto the node ring —
// the same program always lands on the same node, so each node's EvalService
// cache stays hot no matter how many clients are spraying the fleet.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/compile_service.hpp"
#include "serve/model_registry.hpp"

namespace autophase::serve {

struct RemoteClientConfig {
  std::chrono::milliseconds connect_timeout{2'000};
  /// Per-call default; the explicit-deadline overloads override it.
  std::chrono::milliseconds request_deadline{30'000};
  /// Idle connections kept per node beyond which release() closes instead.
  std::size_t pool_per_node = 4;
  std::size_t max_frame_payload = net::kDefaultMaxPayload;
  /// Failure-aware routing: consecutive failures (timeouts included) against
  /// an endpoint before it is backoff-suppressed. While suppressed, the ring
  /// walk routes its keys to the next live point — automatic rebalancing —
  /// and re-admits it when the backoff expires (exponential, doubling per
  /// further failure, capped at backoff_max). A typed kOverloaded bounce
  /// suppresses after a single occurrence: the node said so itself.
  std::size_t backoff_after_failures = 3;
  std::chrono::milliseconds backoff_initial{250};
  std::chrono::milliseconds backoff_max{30'000};
};

/// Snapshot view over the client's obs counters (the counters are the
/// source of truth; this struct is the stable read-back shape).
struct RemoteClientStats {
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;    // transport or remote errors
  std::uint64_t timeouts = 0;    // deadline expiries (also counted as failures)
  std::uint64_t connects = 0;    // fresh TCP connections established
  std::uint64_t rerouted = 0;    // requests routed past a suppressed endpoint
  std::uint64_t overloaded = 0;  // typed kOverloaded bounces received
};

class RemoteCompileClient {
 public:
  explicit RemoteCompileClient(std::vector<net::RemoteEndpoint> nodes,
                               RemoteClientConfig config = {});

  RemoteCompileClient(const RemoteCompileClient&) = delete;
  RemoteCompileClient& operator=(const RemoteCompileClient&) = delete;

  /// One request, routed by program fingerprint, answered within the
  /// deadline or failed with a "deadline exceeded" error. A timed-out
  /// connection is discarded — a late response must never be mistaken for
  /// the answer to the next request.
  Result<CompileResponse> compile(const CompileRequest& request);
  Result<CompileResponse> compile(const CompileRequest& request,
                                  std::chrono::milliseconds deadline);

  /// Pipelined batch: requests are partitioned by routing, each node's share
  /// is written back-to-back on one connection before any response is read,
  /// and results[i] always corresponds to requests[i].
  std::vector<Result<CompileResponse>> compile_batch(const std::vector<CompileRequest>& requests);

  /// Publishes through `node` (which replicates to its peers per its own
  /// config) — the explicit "owning node" of the model. Success means the
  /// owning node durably assigned the returned version; peer_failures > 0
  /// reports replicas that missed the push (the version still exists, so a
  /// blind retry would mint a duplicate — reconcile instead).
  Result<net::PublishReply> publish(std::size_t node, const std::string& name,
                                    const PolicyArtifact& artifact);

  Result<std::vector<net::ModelSummary>> list_models(std::size_t node);
  /// `node`'s registry snapshot (MsgType::kStats), as ServeNode::stats().
  Result<obs::MetricsSnapshot> node_stats(std::size_t node);
  /// Destructively drains up to `max_records` provenance records from
  /// `node`'s log (MsgType::kProvenance) — the learn::Collector primitive.
  Result<net::ProvenanceBatch> drain_provenance(std::size_t node,
                                                std::uint64_t max_records = 256);
  /// Drives `node`'s shadow-traffic split (MsgType::kCanary): install, stop,
  /// or record a promote/rollback decision. The learn::Promoter broadcasts
  /// these fleet-wide.
  Status canary_control(std::size_t node, const net::CanaryControl& control);
  /// Scrapes `node`'s Prometheus-style text exposition (MsgType::kMetrics) —
  /// the remote twin of ServeNode::metrics_text().
  Result<std::string> node_metrics(std::size_t node);

  /// Ring lookup: which node a program's requests are routed to. Pure ring
  /// semantics (the key's primary), ignoring endpoint health — the compile
  /// path additionally walks past suppressed endpoints (see pick_node).
  [[nodiscard]] std::size_t route(const ir::Module& module) const;
  [[nodiscard]] std::size_t route_fingerprint(std::uint64_t fingerprint) const;

  /// Membership feed: a confirmed-dead endpoint is dropped from routing (its
  /// ring keys rebalance to the next live point) and its pooled connections
  /// are discarded; mark_alive re-admits a rejoined node and clears its
  /// failure accounting. Endpoints not in this client's fleet are ignored.
  void mark_dead(const net::RemoteEndpoint& endpoint);
  void mark_alive(const net::RemoteEndpoint& endpoint);
  /// Is `node` currently skipped by the ring walk (dead or inside backoff)?
  [[nodiscard]] bool suppressed(std::size_t node) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  /// The fleet this client talks to, in node-index order (FleetMonitor
  /// labels its per-node reports with these).
  [[nodiscard]] const std::vector<net::RemoteEndpoint>& endpoints() const noexcept {
    return nodes_;
  }

  [[nodiscard]] RemoteClientStats stats() const;
  /// The client's own scrape surface (client_requests/failures/timeouts/
  /// connects counters). Per-instance, like a ServeNode's registry.
  [[nodiscard]] obs::MetricsRegistry& metrics_registry() noexcept { return metrics_; }

 private:
  struct Lease {
    net::TcpStream stream;
    std::size_t node = 0;
    /// Freshly connected (as opposed to reused from the pool). A pooled
    /// connection may have died while idle (node restart), so transport
    /// failures on a non-fresh lease are retried once on a fresh one.
    bool fresh = false;
  };

  Result<Lease> acquire(std::size_t node, bool force_fresh = false);
  /// Healthy connections return to the pool; poisoned ones are dropped.
  void release(Lease lease, bool healthy);

  /// One request/reply exchange with the stale-pooled-connection retry.
  Result<net::Frame> exchange_op(std::size_t node, const net::Frame& frame);
  /// Writes + reads one node's pipelined share of a batch; returns how many
  /// responses arrived (0 on an immediately-dead connection).
  std::size_t run_node_batch(Lease& lease, const std::vector<CompileRequest>& requests,
                             const std::vector<std::size_t>& batch,
                             std::vector<Result<CompileResponse>>& results, bool& healthy);

  /// One request/response exchange on a leased connection. `transport_ok`
  /// reports whether the stream is still on a frame boundary afterwards
  /// (reusable), independent of the application-level result.
  Result<CompileResponse> roundtrip(Lease& lease, const CompileRequest& request,
                                    net::Deadline deadline, bool* transport_ok);
  /// Sends `frame`, then reads frames until `request_id` answers (pipelined
  /// peers' responses for other ids are never interleaved on a leased
  /// connection, so in practice the first frame is the answer).
  Result<net::Frame> exchange(Lease& lease, const net::Frame& frame, net::Deadline deadline);

  std::uint64_t next_request_id();
  void count_failure(const Status& status);

  /// Health-aware routing: the key's primary unless suppressed, else the
  /// next live node clockwise on the ring (every node suppressed falls back
  /// to the primary — a request must route somewhere, and the primary is the
  /// one whose cache affinity we want back).
  [[nodiscard]] std::size_t pick_node(std::uint64_t fingerprint);
  /// Per-endpoint failure accounting: success resets; failure counts toward
  /// backoff suppression (immediately for a typed overload bounce).
  void note_result(std::size_t node, bool ok, bool overloaded);
  [[nodiscard]] bool suppressed_locked(std::size_t node,
                                       std::chrono::steady_clock::time_point now) const;

  std::vector<net::RemoteEndpoint> nodes_;
  RemoteClientConfig config_;
  /// Consistent-hash ring: (point, node index), sorted by point.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;

  /// Per-endpoint health (guarded by mutex_). `dead` is the membership
  /// verdict — only mark_alive readmits; `backoff_until` is this client's own
  /// exponential suppression from direct failures/overload bounces.
  struct EndpointHealth {
    std::size_t consecutive_failures = 0;
    std::chrono::steady_clock::time_point backoff_until{};
    bool dead = false;
  };

  mutable std::mutex mutex_;
  std::vector<std::vector<net::TcpStream>> idle_;  // per node
  std::vector<EndpointHealth> health_;             // per node
  std::uint64_t next_id_ = 1;

  /// Client-side counters live on an obs registry (scrape-able, lock-free to
  /// bump) instead of a mutex-guarded struct; stats() reads them back.
  obs::MetricsRegistry metrics_;
  obs::Counter& ctr_requests_;
  obs::Counter& ctr_failures_;
  obs::Counter& ctr_timeouts_;
  obs::Counter& ctr_connects_;
  obs::Counter& ctr_rerouted_;
  obs::Counter& ctr_overloaded_;
};

}  // namespace autophase::serve
