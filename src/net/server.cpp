#include "net/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ir/printer.hpp"
#include "obs/trace.hpp"
#include "serve/module_codec.hpp"
#include "serve/serialization.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace autophase::net {

namespace {

/// Replies are written by pool workers with the epoll loop still reading the
/// same socket; a stalled client gets this long before the node gives up on
/// the connection.
constexpr std::chrono::milliseconds kReplyTimeout{30'000};

/// Monotonic nanos for the gossip last-sync stamp (atomic-friendly scalar).
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

void ServeNode::Connection::send(const Frame& frame) {
  // Encode outside the lock: a multi-MB reply must not serialise other
  // workers' sends behind its memcpy.
  const std::string bytes = encode_frame(frame);
  const std::lock_guard<std::mutex> lock(write_mutex);
  if (!open) return;
  if (!stream.write_all(bytes.data(), bytes.size(), deadline_in(kReplyTimeout)).is_ok()) {
    open = false;
    stream.shutdown();
  }
}

void ServeNode::Connection::close() {
  const std::lock_guard<std::mutex> lock(write_mutex);
  open = false;
  stream.shutdown();
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

ServeNode::ServeNode(std::shared_ptr<serve::ModelRegistry> registry,
                     std::shared_ptr<runtime::EvalService> eval, ServeNodeConfig config)
    : registry_(registry != nullptr ? std::move(registry)
                                    : std::make_shared<serve::ModelRegistry>()),
      config_(config) {
  // A node whose inner service cannot drain would deadlock its own frame
  // handlers; net workers likewise must exist to answer anything at all.
  config_.compile.workers = std::max<std::size_t>(1, config_.compile.workers);
  config_.net_workers = std::max<std::size_t>(1, config_.net_workers);
  // A non-positive gossip period would turn the background loop into a busy
  // spin of back-to-back connects; floor it like the worker counts above.
  config_.gossip.period = std::max(config_.gossip.period, std::chrono::milliseconds(1));
  // Remote traffic gets typed overload bounces (MsgType::kOverloaded) rather
  // than indefinite blocking: a net worker parked in a blocking submit() is a
  // net worker not answering pings, which is how one saturated node drags a
  // whole fleet's failure detector into false positives.
  config_.compile.shed_on_saturation = true;
  service_ = std::make_unique<serve::CompileService>(registry_, std::move(eval), config_.compile);
  transport_ = std::make_unique<TcpTransport>(
      TcpTransportConfig{config_.peer_timeout, config_.max_frame_payload});
  gossip_core_ = std::make_unique<GossipCore>(
      registry_, GossipCoreConfig{config_.max_frame_payload, config_.sync_fetch_batch});
  net_pool_ = std::make_unique<ThreadPool>(config_.net_workers);
  // Gossip health + trace-ring accounting ride the service's registry as
  // scrape-time views. The lambdas capture `this`, which the node's own
  // lifetime covers: the registry handle is owned by the service, which this
  // node owns and out-lives every scrape it serves.
  obs::MetricsRegistry& metrics = *service_->metrics_registry();
  metrics.gauge_fn("gossip_rounds", {}, [this] {
    return static_cast<double>(gossip_rounds_.load(std::memory_order_relaxed));
  });
  metrics.gauge_fn("gossip_fetched", {}, [this] {
    return static_cast<double>(gossip_fetched_.load(std::memory_order_relaxed));
  });
  // -1 = never synced (the text form of kNeverSynced, which as a double
  // would print as a meaningless 1.8e19).
  metrics.gauge_fn("gossip_last_sync_age_ms", {}, [this] {
    const std::int64_t last = last_sync_ns_.load(std::memory_order_relaxed);
    if (last < 0) return -1.0;
    return static_cast<double>(std::max<std::int64_t>(0, steady_now_ns() - last)) / 1e6;
  });
  // Membership gauges read through the pointer because the table is only
  // created by start() (it needs the bound port for the self endpoint);
  // scrapes before then see an empty fleet of one.
  metrics.gauge_fn("members_alive", {}, [this] {
    if (membership_ == nullptr) return 1.0;
    const std::size_t suspect = membership_->suspect_count();
    const std::size_t non_terminal = membership_->alive_count();
    return static_cast<double>(non_terminal > suspect ? non_terminal - suspect : 0);
  });
  metrics.gauge_fn("members_suspect", {}, [this] {
    return membership_ == nullptr ? 0.0 : static_cast<double>(membership_->suspect_count());
  });
  metrics.gauge_fn("members_dead", {}, [this] {
    return membership_ == nullptr ? 0.0 : static_cast<double>(membership_->dead_count());
  });
  metrics.gauge_fn("trace_spans_recorded", {},
                   [] { return static_cast<double>(obs::tracer().recorded()); });
  metrics.gauge_fn("trace_spans_dropped", {},
                   [] { return static_cast<double>(obs::tracer().dropped()); });
  // Online-learning loop: pre-create the decision counters so every node
  // scrapes them at 0 from the first kMetrics poll, and capture provenance
  // for every successful compile into the bounded log.
  metrics.counter("learn_promoted");
  metrics.counter("learn_rolled_back");
  if (config_.provenance_capacity > 0) {
    provenance_log_ = std::make_unique<learn::ProvenanceLog>(config_.provenance_capacity);
    metrics.gauge_fn("provenance_pending", {}, [this] {
      return static_cast<double>(provenance_log_->size());
    });
    metrics.gauge_fn("provenance_dropped", {}, [this] {
      return static_cast<double>(provenance_log_->dropped());
    });
    // The hook outlives nothing: the service is owned by this node and is
    // shut down (draining its workers) before provenance_log_ destructs.
    service_->set_provenance_hook([this](const serve::CompileRequest& request,
                                         const serve::CompileResponse& response) {
      learn::ProvenanceRecord record;
      record.fingerprint = ir::module_fingerprint(*request.module);
      record.module_bytes = serve::serialize_module(*request.module);
      record.objective = request.objective;
      record.model = response.provenance.model;
      record.version = response.provenance.version;
      record.canary = response.provenance.canary;
      record.sequence = response.provenance.sequence;
      record.baseline_cycles = response.provenance.baseline_cycles;
      record.predicted_cycles = response.provenance.predicted_cycles;
      record.measured_cycles = response.provenance.measured_cycles;
      record.measured_area = response.provenance.measured_area;
      record.weights = request.weights;
      provenance_log_->append(std::move(record));
    });
  }
  // serve::warm_up runs for every artifact the registry installs. Every
  // install path (publish, kReplicate push, catch-up fetch) funnels through
  // the registry, so hooking it here warms them all. The hook captures the
  // eval service by value, not `this` — a registry shared beyond this node's
  // lifetime keeps a valid (if then-idle) hook.
  registry_->set_install_hook(
      [eval_service = service_->eval_service()](
          const std::shared_ptr<const serve::PolicyArtifact>& artifact) {
        serve::warm_up(*artifact, *eval_service);
      });
}

ServeNode::~ServeNode() { shutdown(); }

Status ServeNode::start() {
  if (started_) return Status::error("serve node already started");
  auto listener = TcpListener::bind_loopback(config_.port);
  if (!listener.is_ok()) return listener.status();
  listener_ = std::move(listener).value();
  port_ = listener_.port();

  epoll_fd_ = OwnedFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) return Status::error(strf("epoll_create1: %s", std::strerror(errno)));
  wake_fd_ = OwnedFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wake_fd_.valid()) return Status::error(strf("eventfd: %s", std::strerror(errno)));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return Status::error(strf("epoll_ctl(listener): %s", std::strerror(errno)));
  }
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) != 0) {
    return Status::error(strf("epoll_ctl(wakeup): %s", std::strerror(errno)));
  }

  started_ = true;
  if (config_.gossip.enabled) {
    // The self endpoint needs the bound port, so the table is born here, not
    // in the ctor. Seed it with the statically configured peers; rumors
    // piggybacked on every sync exchange take it from there.
    membership_ = std::make_unique<MembershipTable>(endpoint(), config_.membership);
    for (const RemoteEndpoint& peer : peers()) membership_->add_peer(peer);
    gossip_core_->set_membership(membership_.get());
  }
  loop_thread_ = std::thread([this] { event_loop(); });
  if (config_.gossip.enabled) gossip_thread_ = std::thread([this] { gossip_loop(); });
  return Status::ok();
}

void ServeNode::shutdown() {
  // Serialised: concurrent callers (an owner and the destructor, say) must
  // not race the thread join or tear members down twice.
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (stopping_.exchange(true)) return;
  // The gossip loop first: it makes outbound calls through the transport,
  // and must not start a fresh pull against a fleet that is tearing down.
  // A pull already in flight against a dead peer bounds this join by
  // peer_timeout — the same outbound budget a publish push has always had;
  // keep peer_timeout modest on fleets that restart often.
  if (gossip_thread_.joinable()) {
    // Taking the wait mutex orders the stop flag with the loop's predicate
    // check — a notify can never slip between check and sleep. (The wait is
    // bounded anyway, but shutdown should not eat a whole gossip period.)
    { const std::lock_guard<std::mutex> gossip_lock(gossip_mutex_); }
    gossip_cv_.notify_all();
    gossip_thread_.join();
  }
  if (started_ && loop_thread_.joinable()) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
    loop_thread_.join();
  }
  // The epoll thread is gone; the connection map is now single-owner. Shut
  // every socket down first so a worker blocked writing a reply fails fast
  // instead of holding the drain hostage.
  for (auto& [fd, conn] : connections_) conn->close();
  // Queued-but-unstarted handlers are cancelled (their connections are
  // closed anyway); running ones finish against shut-down sockets.
  net_pool_->shutdown(ThreadPool::ShutdownMode::kCancel);
  connections_.clear();
  service_->shutdown();
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void ServeNode::event_loop() {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd itself broke; shutdown() will clean up
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_.get()) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t rd = ::read(wake_fd_.get(), &drained, sizeof(drained));
        // A resume nudge: re-drive the parser for connections whose inbuf
        // still holds bytes (stop flag is re-checked at loop top; a still-
        // paused connection just re-pauses inside drain_buffered).
        for (auto it = connections_.begin(); it != connections_.end();) {
          const std::shared_ptr<Connection> conn = it->second;
          ++it;  // handle_readable may erase the current entry
          if (!conn->inbuf.empty()) handle_readable(conn);
        }
        continue;
      }
      if (fd == listener_.fd()) {
        for (;;) {
          auto accepted = listener_.accept_nonblocking();
          if (!accepted.is_ok() || accepted.value() < 0) break;
          const int conn_fd = accepted.value();
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = conn_fd;
          if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn_fd, &ev) != 0) {
            ::close(conn_fd);
            continue;
          }
          connections_.emplace(conn_fd, std::make_shared<Connection>(conn_fd));
        }
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      handle_readable(it->second);
    }
  }
}

/// Parses whatever is buffered, dispatching frames until the in-flight cap
/// pauses the connection. Returns false when the connection is gone or
/// paused (the caller must stop touching it).
bool ServeNode::drain_buffered(const std::shared_ptr<Connection>& conn) {
  Frame frame;
  std::string error;
  for (;;) {
    if (conn->in_flight.load() >= config_.max_in_flight_per_connection) {
      // Residue stays in inbuf; resume re-drives this parser. When the cap
      // cleared between our check and the pause, just keep parsing.
      if (pause_reading(*conn)) return false;
      continue;
    }
    const FrameParse parsed =
        try_parse_frame(conn->inbuf, frame, error, config_.max_frame_payload);
    if (parsed == FrameParse::kNeedMore) return true;
    if (parsed == FrameParse::kUnknownType) {
      // A well-framed verb this node does not speak (a newer peer's
      // request): answer it with a typed error echoing its id and keep
      // parsing — the stream is still on a frame boundary, so the
      // connection stays good for every verb we do know.
      Frame reply;
      reply.type = MsgType::kError;
      reply.request_id = frame.request_id;
      reply.payload = encode_status_reply(Status::error("protocol error: " + error));
      conn->send(reply);
      continue;
    }
    if (parsed == FrameParse::kError) {
      // One best-effort diagnostic, then cut the byte stream: after a
      // framing error there is no way back to a frame boundary.
      Frame reply;
      reply.type = MsgType::kError;
      reply.payload = encode_status_reply(Status::error("protocol error: " + error));
      conn->send(reply);
      drop_connection(conn->stream.fd());
      return false;
    }
    dispatch(conn, std::move(frame));
  }
}

void ServeNode::handle_readable(const std::shared_ptr<Connection>& conn) {
  // Buffered frames first (a resume nudge re-enters here with no new bytes),
  // then read and parse in alternation: a pipelining client is throttled by
  // the in-flight cap instead of ballooning inbuf — once the cap is hit the
  // socket stays unread and TCP backpressure does the rest.
  if (!drain_buffered(conn)) return;
  const int fd = conn->stream.fd();
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got == 0) {  // orderly close
      drop_connection(fd);
      return;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      drop_connection(fd);
      return;
    }
    conn->inbuf.append(chunk, static_cast<std::size_t>(got));
    if (!drain_buffered(conn)) return;
  }
}

bool ServeNode::pause_reading(Connection& conn) {
  const std::lock_guard<std::mutex> lock(conn.flow_mutex);
  // Re-checked under the lock: a worker finishing concurrently either sees
  // paused == true here-after and resumes us, or drained first and we skip
  // the pause entirely. Either way no wakeup is lost.
  if (conn.in_flight.load() < config_.max_in_flight_per_connection) return false;
  conn.paused = true;
  epoll_event ev{};
  ev.events = 0;
  ev.data.fd = conn.stream.fd();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.stream.fd(), &ev);
  return true;
}

void ServeNode::resume_reading(Connection& conn) {
  const std::lock_guard<std::mutex> lock(conn.flow_mutex);
  if (!conn.paused) return;
  conn.paused = false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn.stream.fd();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.stream.fd(), &ev);
  // Frames already sitting in inbuf are invisible to epoll (it reports
  // socket bytes, not our buffer), so nudge the event loop to re-run the
  // parser for resumed connections.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
}

void ServeNode::drop_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  it->second->close();
  connections_.erase(it);  // workers may still hold the shared_ptr
}

void ServeNode::dispatch(std::shared_ptr<Connection> conn, Frame frame) {
  conn->in_flight.fetch_add(1);
  // The future is intentionally dropped: replies flow through the
  // connection, and pool shutdown (kCancel) discards whatever never ran.
  (void)net_pool_->submit(
      [this, conn = std::move(conn), frame = std::move(frame)] { handle_frame(conn, frame); });
}

// ---------------------------------------------------------------------------
// Frame handlers
// ---------------------------------------------------------------------------

void ServeNode::handle_frame(const std::shared_ptr<Connection>& conn, const Frame& frame) {
  Frame reply;
  reply.type = frame.type;
  reply.request_id = frame.request_id;
  bool answer = true;
  switch (frame.type) {
    case MsgType::kPing: break;  // empty payload echo
    case MsgType::kCompile: reply.payload = handle_compile(frame, reply.type); break;
    case MsgType::kPublish: reply.payload = handle_publish(frame); break;
    case MsgType::kReplicate: reply.payload = handle_replicate(frame); break;
    case MsgType::kListModels: reply.payload = handle_list(); break;
    case MsgType::kStats: reply.payload = encode_metrics_snapshot(stats()); break;
    case MsgType::kMetrics: reply.payload = encode_metrics_reply(metrics_text()); break;
    case MsgType::kProvenance: reply.payload = handle_provenance(frame); break;
    case MsgType::kCanary: reply.payload = handle_canary(frame); break;
    case MsgType::kSyncRequest:
      reply.type = MsgType::kSyncOffer;
      reply.payload = gossip_core_->handle_sync(frame.payload);
      break;
    case MsgType::kSyncOffer: answer = false; break;   // replies are client-side
    case MsgType::kOverloaded: answer = false; break;  // reply verb, never a request
    case MsgType::kError: answer = false; break;       // a peer's diagnostic
  }
  if (answer) conn->send(reply);
  // Flow control: this frame is done; wake the connection if the in-flight
  // cap had paused it (resume_reading no-ops otherwise).
  conn->in_flight.fetch_sub(1);
  if (conn->in_flight.load() < config_.max_in_flight_per_connection) resume_reading(*conn);
}

std::string ServeNode::handle_compile(const Frame& frame, MsgType& reply_type) {
  auto decoded = decode_compile_request(frame.payload);
  if (!decoded.is_ok()) {
    return encode_compile_response(decoded.status());
  }
  // The decoded module lives on this stack frame until the future resolves,
  // exactly as long as the in-flight request needs it.
  auto future = service_->submit(std::move(decoded.value().request));
  Result<serve::CompileResponse> result = future.get();
  if (!result.is_ok() && serve::is_overloaded(result.status())) {
    // Typed overload bounce: the shed status crosses the wire as its own verb
    // (echoing the request id like any pipelined reply), so clients back off
    // and rebalance without parsing error strings.
    reply_type = MsgType::kOverloaded;
    return encode_status_reply(result.status());
  }
  return encode_compile_response(std::move(result));
}

std::string ServeNode::handle_publish(const Frame& frame) {
  auto request = decode_publish_request(frame.payload);
  if (!request.is_ok()) return encode_publish_reply(request.status());
  auto artifact = serve::deserialize_artifact(request.value().artifact_blob);
  if (!artifact.is_ok()) {
    return encode_publish_reply(Status::error("publish: " + artifact.message()));
  }
  return encode_publish_reply(publish(request.value().name, std::move(artifact).value()));
}

std::string ServeNode::handle_replicate(const Frame& frame) {
  auto key = registry_->import_model(frame.payload);
  if (!key.is_ok()) return encode_publish_reply(Status::error("replicate: " + key.message()));
  PublishReply reply;
  reply.name = key.value().name;
  reply.version = key.value().version;
  return encode_publish_reply(reply);
}

std::string ServeNode::handle_list() const {
  return encode_model_list(gossip_core_->inventory());
}

std::string ServeNode::handle_provenance(const Frame& frame) {
  auto request = decode_provenance_request(frame.payload);
  if (!request.is_ok()) return encode_provenance_reply(request.status());
  if (provenance_log_ == nullptr) {
    return encode_provenance_reply(Status::error("provenance capture disabled on this node"));
  }
  ProvenanceBatch batch;
  batch.records = provenance_log_->drain(static_cast<std::size_t>(request.value().max_records));
  batch.remaining = provenance_log_->size();
  batch.dropped = provenance_log_->dropped();
  return encode_provenance_reply(std::move(batch));
}

std::string ServeNode::handle_canary(const Frame& frame) {
  auto control = decode_canary_control(frame.payload);
  if (!control.is_ok()) return encode_status_reply(control.status());
  const CanaryControl& c = control.value();
  switch (c.action) {
    case CanaryAction::kStart:
      service_->set_traffic_split(
          c.model, serve::TrafficSplit{c.canary_model, c.canary_version, c.fraction});
      AP_CLOG(kInfo, "learn") << "canary start: " << c.model << " -> " << c.canary_model << " v"
                              << c.canary_version << " at " << c.fraction;
      break;
    case CanaryAction::kStop:
      service_->clear_traffic_split(c.model);
      AP_CLOG(kInfo, "learn") << "canary stop: " << c.model;
      break;
    case CanaryAction::kPromoted:
      // The promoted weights arrive as an ordinary publish under the base
      // name (replication/gossip); this verb just retires the split and
      // counts the decision.
      service_->clear_traffic_split(c.model);
      service_->metrics_registry()->counter("learn_promoted").inc();
      AP_CLOG(kInfo, "learn") << "canary promoted: " << c.model << " <- " << c.canary_model;
      break;
    case CanaryAction::kRolledBack:
      service_->clear_traffic_split(c.model);
      service_->metrics_registry()->counter("learn_rolled_back").inc();
      AP_CLOG(kWarn, "learn") << "canary rolled back: " << c.model << " keeps incumbent, "
                              << c.canary_model << " retired";
      break;
  }
  return encode_status_reply(Status::ok());
}

// ---------------------------------------------------------------------------
// Publish + replication
// ---------------------------------------------------------------------------

void ServeNode::add_peer(RemoteEndpoint peer) {
  {
    const std::lock_guard<std::mutex> lock(peers_mutex_);
    peers_.push_back(peer);
  }
  if (membership_ != nullptr) membership_->add_peer(peer);
}

std::vector<RemoteEndpoint> ServeNode::peers() const {
  const std::lock_guard<std::mutex> lock(peers_mutex_);
  return peers_;
}

Result<PublishReply> ServeNode::publish(const std::string& name,
                                        serve::PolicyArtifact artifact) {
  const std::uint32_t version = registry_->publish(name, std::move(artifact));
  const auto blob = registry_->export_model(name, version);
  if (!blob.is_ok()) return blob.status();  // cannot happen right after publish
  PublishReply reply;
  reply.name = name;
  reply.version = version;
  reply.peer_failures = replicate_to_peers(blob.value());
  return reply;
}

std::uint32_t ServeNode::replicate_to_peers(const std::string& blob) {
  std::uint32_t failures = 0;
  for (const RemoteEndpoint& peer : peers()) {
    Frame push;
    push.type = MsgType::kReplicate;
    push.request_id = 1;
    push.payload = blob;
    auto ack = transport_->exchange(peer, push);
    if (!ack.is_ok() || ack.value().type != MsgType::kReplicate ||
        !decode_publish_reply(ack.value().payload).is_ok()) {
      ++failures;
      AP_CLOG(kWarn, "serve") << "replication push to " << peer.host << ":" << peer.port
                              << " failed"
                              << (ack.is_ok() ? "" : strf(" (%s)", ack.status().message().c_str()));
    }
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Replication catch-up
// ---------------------------------------------------------------------------

Result<SyncReport> ServeNode::sync_from(const RemoteEndpoint& peer) {
  auto report = gossip_core_->pull_from(*transport_, peer);
  if (report.is_ok()) {
    gossip_fetched_.fetch_add(report.value().fetched, std::memory_order_relaxed);
    last_sync_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Background gossip (epidemic anti-entropy)
// ---------------------------------------------------------------------------

void ServeNode::gossip_loop() {
  Rng rng(config_.gossip.seed);
  const double jitter = std::clamp(config_.gossip.jitter, 0.0, 1.0);
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Jittered wait, interruptible by shutdown. The jitter factor is drawn
    // from this node's seeded stream, so a fleet seeded distinctly
    // desynchronises instead of all nodes pulling at the same instant.
    const double factor = 1.0 + jitter * (2.0 * rng.uniform() - 1.0);
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        config_.gossip.period * factor);
    {
      const auto stopped = [this] { return stopping_.load(std::memory_order_relaxed); };
      std::unique_lock<std::mutex> lock(gossip_mutex_);
      gossip_cv_.wait_for(lock, wait, stopped);
    }
    if (stopping_.load(std::memory_order_relaxed)) break;
    // Candidate set: the membership table's eligible peers (alive + suspect —
    // a suspect keeps receiving direct probes, which is exactly how a false
    // suspicion gets refuted) when membership runs, else the static peer
    // list. Either way, never this node itself: a self entry in peers_ would
    // otherwise burn whole rounds pulling from ourselves.
    std::vector<RemoteEndpoint> candidates =
        membership_ != nullptr ? membership_->eligible_peers() : this->peers();
    const RemoteEndpoint self = endpoint();
    candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                    [&self](const RemoteEndpoint& p) {
                                      return p.port == self.port && p.host == self.host;
                                    }),
                     candidates.end());
    if (candidates.empty()) {
      const std::size_t registered = this->peers().size();
      if (registered > 0) {
        AP_CLOG(kWarn, "gossip") << "no eligible gossip peer this round (" << registered
                                 << " registered; all self, dead, or left)";
      }
      continue;
    }
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1));
    // Pull, don't push: the peer's inventory diff decides what travels, so a
    // round against an already-converged peer costs one inventory exchange.
    // Failures are expected life in a fleet (peer down, partition, timeout)
    // and simply leave convergence to a later round.
    if (auto report = sync_from(candidates[pick]); !report.is_ok()) {
      AP_CLOG(kWarn, "gossip") << "pull from " << candidates[pick].host << ":"
                               << candidates[pick].port
                               << " failed: " << report.status().message();
    } else if (report.value().fetched > 0) {
      AP_CLOG(kInfo, "gossip") << "pulled " << report.value().fetched << " blob(s) from "
                               << candidates[pick].host << ":" << candidates[pick].port;
    }
    gossip_rounds_.fetch_add(1, std::memory_order_relaxed);
    if (membership_ != nullptr) {
      // Round-based suspicion: a suspect unanswered for confirm_after_rounds
      // gossip rounds is confirmed dead — dropped from the candidate set
      // above and disseminated as a dead rumor on every later exchange.
      for (const RemoteEndpoint& dead : membership_->tick_round()) {
        AP_CLOG(kWarn, "gossip") << "membership: " << dead.host << ":" << dead.port
                                 << " confirmed dead (suspicion timeout)";
      }
    }
  }
}

std::string ServeNode::metrics_text() const {
  return service_->metrics_registry()->render_text();
}

Status ServeNode::dump_trace(const std::string& path) const {
  return obs::write_chrome_trace(
      path, obs::chrome_trace_json(obs::tracer().snapshot(), strf("serve-node:%u", port_)));
}

obs::MetricsSnapshot ServeNode::stats() const {
  return service_->metrics_registry()->snapshot();
}

}  // namespace autophase::net
