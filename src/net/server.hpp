// ServeNode: one member of a serving fleet. Exposes a CompileService +
// ModelRegistry on a loopback TCP port — an epoll thread owns all socket
// reads (accept, buffer, frame extraction) and hands complete frames to a
// small worker pool, which decodes, runs the request through the in-process
// CompileService (so cross-request policy batching still applies to network
// traffic), and writes the framed reply under a per-connection lock.
// Responses carry the originating request id, so one connection can have any
// number of requests in flight (client-side pipelining).
//
// Replication: publishing through a node stamps the artifact with its
// registry version, then pushes the exported blob to every registered peer,
// which imports it at that exact embedded version. On top of the push, every
// node can run epidemic gossip (ServeNodeConfig::gossip): a background loop
// wakes on a jittered period drawn from the node's seeded RNG, picks one
// random peer, and runs an anti-entropy pull (net::GossipCore over
// kSyncRequest/kSyncOffer) — so publishes propagate fleet-wide without the
// owner enumerating the fleet, and late joiners converge with no operator
// sync_from call. All outbound peer traffic rides a net::Transport
// (TcpTransport here; the deterministic simulator in tests).
//
// Warm-up: every artifact the registry installs (publish, replication push,
// gossip/catch-up fetch) runs serve::warm_up before it can serve — weights
// are pre-faulted and the EvalService cache is primed from the artifact's
// training-corpus baselines, so a model's first request is never cold.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/gossip.hpp"
#include "net/membership.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "serve/compile_service.hpp"
#include "serve/model_registry.hpp"
#include "support/thread_pool.hpp"

namespace autophase::net {

/// Background anti-entropy scheduling. When enabled, the node runs one
/// gossip round roughly every `period`, jittered by ±`jitter` x period with
/// draws from the node's own seeded RNG stream — a fleet started from
/// distinct seeds desynchronises naturally instead of thundering in lockstep.
struct GossipConfig {
  bool enabled = false;
  std::chrono::milliseconds period{500};
  /// Fraction of the period each round is jittered by (0 = fixed period).
  double jitter = 0.25;
  /// Seed for the node's gossip RNG (peer choice + jitter).
  std::uint64_t seed = 1;
};

struct ServeNodeConfig {
  /// 0 binds an ephemeral port; read it back via port().
  std::uint16_t port = 0;
  /// Frame-handling workers (decode + wait on the compile service + reply).
  std::size_t net_workers = 2;
  std::size_t max_frame_payload = kDefaultMaxPayload;
  /// Timeout for this node's *outbound* calls (replication + gossip pulls).
  std::chrono::milliseconds peer_timeout{10'000};
  /// Frames a single connection may have queued or executing before the
  /// node stops reading its socket (EPOLLIN paused until handlers drain).
  /// This extends the CompileService's bounded-queue backpressure out to
  /// the network: a pipelining client can never grow server memory beyond
  /// connections x this cap x frame size.
  std::size_t max_in_flight_per_connection = 64;
  /// Blobs requested per kSyncRequest fetch during anti-entropy. Chunks are
  /// additionally split by advertised blob bytes so one kSyncOffer reply
  /// stays far below the frame payload cap even for huge artifacts.
  std::size_t sync_fetch_batch = 4;
  /// Bounded provenance log for the online-learning loop: every successful
  /// compile appends a replayable record here until a learn::Collector
  /// drains it over kProvenance. When full the oldest record is dropped
  /// (counted in kStats provenance_dropped). 0 disables capture entirely.
  std::size_t provenance_capacity = 4096;
  /// Background epidemic anti-entropy (off by default; operator-triggered
  /// sync_from and owner-push replication work regardless).
  GossipConfig gossip{};
  /// SWIM-style membership knobs (suspicion thresholds). The table itself is
  /// created by start() whenever gossip is enabled — rumors piggyback on the
  /// anti-entropy exchange, so membership without gossip has no dissemination
  /// path and is not offered.
  MembershipConfig membership{};
  /// The wrapped CompileService; workers is clamped to >= 1 (a node with an
  /// undrainable queue would deadlock its own net workers).
  serve::CompileServiceConfig compile{};
};

class ServeNode {
 public:
  ServeNode(std::shared_ptr<serve::ModelRegistry> registry,
            std::shared_ptr<runtime::EvalService> eval, ServeNodeConfig config = {});
  ~ServeNode();

  ServeNode(const ServeNode&) = delete;
  ServeNode& operator=(const ServeNode&) = delete;

  /// Binds + starts the epoll loop (and the gossip loop when enabled).
  /// Must be called (once) before traffic.
  Status start();
  /// Idempotent: stops gossip, closes the listener and every connection,
  /// drains in-flight frame handlers, then shuts the compile service down.
  void shutdown();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] RemoteEndpoint endpoint() const { return {"127.0.0.1", port_}; }

  /// Membership: peers receive every subsequent publish push and are the
  /// candidate set the gossip loop pulls from.
  void add_peer(RemoteEndpoint peer);
  [[nodiscard]] std::vector<RemoteEndpoint> peers() const;

  /// Publishes locally (assigning the next version) and pushes the stamped
  /// blob to every peer. Local publish always wins: peer failures are
  /// reported in the reply, not rolled back (gossip repairs them later).
  Result<PublishReply> publish(const std::string& name, serve::PolicyArtifact artifact);

  /// One operator-triggered anti-entropy pass against `peer` (the gossip
  /// loop runs the same pull on its own schedule). Idempotent.
  Result<SyncReport> sync_from(const RemoteEndpoint& peer);

  [[nodiscard]] serve::CompileService& service() noexcept { return *service_; }
  /// The node's provenance log (kProvenance drains it; tests inspect it).
  /// Null when config.provenance_capacity == 0.
  [[nodiscard]] learn::ProvenanceLog* provenance_log() noexcept { return provenance_log_.get(); }
  [[nodiscard]] const std::shared_ptr<serve::ModelRegistry>& registry() const noexcept {
    return registry_;
  }
  /// The kStats payload: the service's registry snapshot, including the
  /// gossip, membership and provenance gauges this node's ctor registers.
  [[nodiscard]] obs::MetricsSnapshot stats() const;

  /// The node's SWIM membership table — null until start(), and always null
  /// when gossip is disabled. Internally synchronized; callers (tests,
  /// operators wiring a RemoteCompileClient's mark_dead) may read it while
  /// the node serves.
  [[nodiscard]] MembershipTable* membership() noexcept { return membership_.get(); }

  /// Prometheus-style text exposition of this node's metrics registry —
  /// exactly what a kMetrics scrape returns. The ctor adds gossip-health
  /// and trace-ring callback gauges, so the one text covers serve counters,
  /// latency/cycle-error histograms, eval-cache economy, gossip, and traces.
  [[nodiscard]] std::string metrics_text() const;

  /// Writes every span the process tracer currently retains as Chrome
  /// trace-event JSON (openable in Perfetto / chrome://tracing).
  Status dump_trace(const std::string& path) const;

 private:
  /// Per-connection state. The epoll thread owns `inbuf`; writers (frame
  /// handlers on the worker pool) serialise on `write_mutex`. The fd is
  /// closed only by the destructor, after every holder dropped its
  /// reference — a worker finishing a stale request can never write into a
  /// recycled descriptor.
  struct Connection {
    explicit Connection(int fd) : stream(OwnedFd(fd)) {}
    TcpStream stream;
    std::string inbuf;
    std::mutex write_mutex;
    bool open = true;
    /// Dispatched-but-unfinished frames (flow control; see ServeNodeConfig).
    std::atomic<std::size_t> in_flight{0};
    /// Guards `paused` + the matching epoll_ctl: pause (epoll thread) and
    /// resume (any worker) must check-and-modify atomically, or a resume
    /// landing between the other side's check and its MOD is lost and the
    /// connection stays muted forever.
    std::mutex flow_mutex;
    bool paused = false;

    /// Best-effort framed reply; failures (peer went away) mark the
    /// connection closed and are otherwise ignored.
    void send(const Frame& frame);
    void close();
  };

  void event_loop();
  void gossip_loop();
  void handle_readable(const std::shared_ptr<Connection>& conn);
  bool drain_buffered(const std::shared_ptr<Connection>& conn);
  void drop_connection(int fd);
  void dispatch(std::shared_ptr<Connection> conn, Frame frame);
  void handle_frame(const std::shared_ptr<Connection>& conn, const Frame& frame);
  /// Flow control: stop/resume epoll read interest for one connection.
  /// pause runs on the epoll thread and reports whether it actually paused
  /// (a concurrent worker may already have drained below the cap); resume
  /// may run on any worker.
  bool pause_reading(Connection& conn);
  void resume_reading(Connection& conn);

  /// `reply_type` is rewritten to kOverloaded when the service shed the
  /// request, so the bounce crosses the wire typed instead of as a string.
  std::string handle_compile(const Frame& frame, MsgType& reply_type);
  std::string handle_publish(const Frame& frame);
  std::string handle_replicate(const Frame& frame);
  std::string handle_list() const;
  std::string handle_provenance(const Frame& frame);
  std::string handle_canary(const Frame& frame);
  /// Pushes one exported blob to every peer; returns the failure count.
  std::uint32_t replicate_to_peers(const std::string& blob);

  std::shared_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::CompileService> service_;
  ServeNodeConfig config_;
  /// Online-learning capture (null when disabled). Fed by the service's
  /// provenance hook; drained by kProvenance.
  std::unique_ptr<learn::ProvenanceLog> provenance_log_;

  /// Outbound peer traffic (replication pushes + anti-entropy pulls).
  std::unique_ptr<Transport> transport_;
  /// The shared sync-protocol logic (inventory cache, kSyncRequest serving,
  /// pull-based diff/fetch) — the same code the simulator drives in tests.
  std::unique_ptr<GossipCore> gossip_core_;
  /// SWIM membership (created by start() when gossip is enabled). Owned here;
  /// the gossip core holds a raw pointer, torn down after the gossip thread.
  std::unique_ptr<MembershipTable> membership_;

  TcpListener listener_;
  std::uint16_t port_ = 0;
  OwnedFd epoll_fd_;
  OwnedFd wake_fd_;  // eventfd: nudges the epoll loop on shutdown
  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mutex_;  // serialises shutdown(); see there
  bool started_ = false;

  std::unordered_map<int, std::shared_ptr<Connection>> connections_;  // epoll thread only

  mutable std::mutex peers_mutex_;
  std::vector<RemoteEndpoint> peers_;

  // Gossip loop state + health counters (surfaced through kStats).
  std::thread gossip_thread_;
  std::condition_variable gossip_cv_;
  std::mutex gossip_mutex_;
  std::atomic<std::uint64_t> gossip_rounds_{0};
  std::atomic<std::uint64_t> gossip_fetched_{0};
  /// steady_clock nanos of the last *successful* pull; -1 = never.
  std::atomic<std::int64_t> last_sync_ns_{-1};

  std::unique_ptr<ThreadPool> net_pool_;
};

}  // namespace autophase::net
