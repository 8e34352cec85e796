#include "serve/remote_client.hpp"

#include <algorithm>
#include <unordered_map>

#include "ir/printer.hpp"
#include "obs/trace.hpp"
#include "serve/serialization.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace autophase::serve {

namespace {

/// Ring points per node. More points = smoother key spread.
constexpr std::size_t kVirtualNodes = 64;

bool is_timeout(const Status& status) {
  return status.message().find("deadline exceeded") != std::string::npos;
}

}  // namespace

RemoteCompileClient::RemoteCompileClient(std::vector<net::RemoteEndpoint> nodes,
                                         RemoteClientConfig config)
    : nodes_(std::move(nodes)),
      config_(config),
      idle_(nodes_.size()),
      health_(nodes_.size()),
      ctr_requests_(metrics_.counter("client_requests")),
      ctr_failures_(metrics_.counter("client_failures")),
      ctr_timeouts_(metrics_.counter("client_timeouts")),
      ctr_connects_(metrics_.counter("client_connects")),
      ctr_rerouted_(metrics_.counter("client_rerouted")),
      ctr_overloaded_(metrics_.counter("client_overloaded")) {
  // Ring points are derived from the endpoint identity, so every client
  // instance routes identically — cache affinity survives client restarts.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const std::string key = nodes_[n].host + ":" + std::to_string(nodes_[n].port);
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      ring_.emplace_back(fnv1a(key + "#" + std::to_string(v)), n);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t RemoteCompileClient::route_fingerprint(std::uint64_t fingerprint) const {
  if (ring_.empty()) return 0;
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(fingerprint, std::size_t{0}));
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

std::size_t RemoteCompileClient::route(const ir::Module& module) const {
  return route_fingerprint(ir::module_fingerprint(module));
}

// ---------------------------------------------------------------------------
// Endpoint health
// ---------------------------------------------------------------------------

bool RemoteCompileClient::suppressed_locked(
    std::size_t node, std::chrono::steady_clock::time_point now) const {
  const EndpointHealth& h = health_[node];
  return h.dead || h.backoff_until > now;
}

bool RemoteCompileClient::suppressed(std::size_t node) const {
  if (node >= health_.size()) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  return suppressed_locked(node, std::chrono::steady_clock::now());
}

std::size_t RemoteCompileClient::pick_node(std::uint64_t fingerprint) {
  if (ring_.empty() || nodes_.empty()) return 0;
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(fingerprint, std::size_t{0}));
  if (it == ring_.end()) it = ring_.begin();
  const std::size_t primary = it->second;
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t step = 0; step < ring_.size(); ++step) {
    const std::size_t node = it->second;
    if (!suppressed_locked(node, now)) {
      if (node != primary) ctr_rerouted_.inc();
      return node;
    }
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
  return primary;  // everything suppressed; the primary is the best bad bet
}

void RemoteCompileClient::note_result(std::size_t node, bool ok, bool overloaded) {
  if (node >= health_.size()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  EndpointHealth& h = health_[node];
  if (ok) {
    h.consecutive_failures = 0;
    h.backoff_until = {};
    return;
  }
  ++h.consecutive_failures;
  // An overload bounce is the node's own word that it needs relief — back
  // off after one; plain failures need backoff_after_failures in a row
  // before the endpoint loses its ring keys.
  const std::size_t threshold =
      overloaded ? 1 : std::max<std::size_t>(1, config_.backoff_after_failures);
  if (h.consecutive_failures < threshold) return;
  const std::size_t excess = h.consecutive_failures - threshold;
  auto backoff = config_.backoff_initial;
  for (std::size_t i = 0; i < excess && backoff < config_.backoff_max; ++i) backoff *= 2;
  h.backoff_until = std::chrono::steady_clock::now() + std::min(backoff, config_.backoff_max);
}

void RemoteCompileClient::mark_dead(const net::RemoteEndpoint& endpoint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].port != endpoint.port || nodes_[n].host != endpoint.host) continue;
    health_[n].dead = true;
    // Pooled connections to a confirmed-dead node are poison; drop them so a
    // readmitted node starts on fresh sockets.
    idle_[n].clear();
  }
}

void RemoteCompileClient::mark_alive(const net::RemoteEndpoint& endpoint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].port != endpoint.port || nodes_[n].host != endpoint.host) continue;
    health_[n].dead = false;
    health_[n].consecutive_failures = 0;
    health_[n].backoff_until = {};
  }
}

// ---------------------------------------------------------------------------
// Connection pool
// ---------------------------------------------------------------------------

Result<RemoteCompileClient::Lease> RemoteCompileClient::acquire(std::size_t node,
                                                                bool force_fresh) {
  if (node >= nodes_.size()) return Status::error("remote client: node index out of range");
  if (!force_fresh) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_[node].empty()) {
      Lease lease{std::move(idle_[node].back()), node, false};
      idle_[node].pop_back();
      return lease;
    }
  }
  auto stream = net::TcpStream::connect(nodes_[node].host, nodes_[node].port,
                                        config_.connect_timeout);
  if (!stream.is_ok()) return stream.status();
  ctr_connects_.inc();
  return Lease{std::move(stream).value(), node, true};
}

void RemoteCompileClient::release(Lease lease, bool healthy) {
  if (!healthy) {
    lease.stream.shutdown();
    return;  // dropped on scope exit
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (idle_[lease.node].size() < config_.pool_per_node) {
    idle_[lease.node].push_back(std::move(lease.stream));
  }
}

std::uint64_t RemoteCompileClient::next_request_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void RemoteCompileClient::count_failure(const Status& status) {
  ctr_failures_.inc();
  if (is_timeout(status)) ctr_timeouts_.inc();
  if (is_overloaded(status)) ctr_overloaded_.inc();
}

RemoteClientStats RemoteCompileClient::stats() const {
  RemoteClientStats s;
  s.requests = ctr_requests_.value();
  s.failures = ctr_failures_.value();
  s.timeouts = ctr_timeouts_.value();
  s.connects = ctr_connects_.value();
  s.rerouted = ctr_rerouted_.value();
  s.overloaded = ctr_overloaded_.value();
  return s;
}

// ---------------------------------------------------------------------------
// Exchanges
// ---------------------------------------------------------------------------

Result<net::Frame> RemoteCompileClient::exchange(Lease& lease, const net::Frame& frame,
                                                 net::Deadline deadline) {
  if (const Status s = net::write_frame(lease.stream, frame, deadline); !s.is_ok()) return s;
  for (;;) {
    auto reply = net::read_frame(lease.stream, deadline, config_.max_frame_payload);
    if (!reply.is_ok()) return reply.status();
    if (reply.value().type == net::MsgType::kError) {
      return Status::error(net::decode_status_reply(reply.value().payload).message());
    }
    if (reply.value().request_id == frame.request_id) return reply;
    // A response to a request this lease no longer cares about (e.g. the
    // tail of an aborted pipeline) — skip it and keep reading.
  }
}

Result<CompileResponse> RemoteCompileClient::roundtrip(Lease& lease,
                                                       const CompileRequest& request,
                                                       net::Deadline deadline,
                                                       bool* transport_ok) {
  *transport_ok = false;
  net::Frame frame;
  frame.type = net::MsgType::kCompile;
  frame.request_id = next_request_id();
  frame.payload = net::encode_compile_request(request);
  auto reply = exchange(lease, frame, deadline);
  if (!reply.is_ok()) return reply.status();
  if (reply.value().type == net::MsgType::kOverloaded) {
    // A typed shed bounce: the stream is still on a frame boundary, so the
    // connection stays pooled — only the endpoint's routing weight suffers.
    *transport_ok = true;
    const Status shed = net::decode_status_reply(reply.value().payload);
    return shed.is_ok() ? Status::error("overloaded: shed (no detail carried)") : shed;
  }
  if (reply.value().type != net::MsgType::kCompile) {
    return Status::error("remote client: mismatched reply type");
  }
  auto response = net::decode_compile_response(reply.value().payload);
  // A well-formed reply — success or a remote application error (its status
  // prefix says so) — leaves the stream on a frame boundary and reusable.
  // An undecodable payload does not.
  *transport_ok =
      response.is_ok() || !net::decode_status_reply(reply.value().payload).is_ok();
  return response;
}

Result<CompileResponse> RemoteCompileClient::compile(const CompileRequest& request) {
  return compile(request, config_.request_deadline);
}

Result<CompileResponse> RemoteCompileClient::compile(const CompileRequest& request,
                                                     std::chrono::milliseconds deadline_ms) {
  if (request.module == nullptr) return Status::error("compile request has no module");
  ctr_requests_.inc();
  const std::size_t node = pick_node(ir::module_fingerprint(*request.module));
  // Client-side root span. The traced copy carries this span's context over
  // the wire (the tagged trailer on the compile payload), so the server's
  // "request" span parents under it and client + owning-node spans share one
  // trace id — a remote compile reads as a single stitched trace in Perfetto.
  CompileRequest traced = request;
  if (!traced.trace.valid()) traced.trace = obs::tracer().begin_trace();
  AP_SPAN(span, traced.trace, "remote_compile");
  if (span.armed()) {
    span.attr("node", static_cast<std::uint64_t>(node));
    traced.trace = span.context();
  }
  for (int attempt = 0;; ++attempt) {
    auto lease = acquire(node, /*force_fresh=*/attempt > 0);
    if (!lease.is_ok()) {
      // A refused/timed-out connect is the strongest endpoint-failure signal
      // there is — it must feed the backoff like any in-flight failure.
      count_failure(lease.status());
      note_result(node, false, false);
      return lease.status();
    }
    const bool was_fresh = lease.value().fresh;
    // Only a transport-healthy connection returns to the pool: a deadline
    // expiry leaves the answer in flight, and the stream's next reader would
    // attribute it to the wrong request.
    bool transport_ok = false;
    auto response =
        roundtrip(lease.value(), traced, net::deadline_in(deadline_ms), &transport_ok);
    release(std::move(lease).value(), transport_ok);
    // A pooled connection may have died while idle (node restart between
    // requests); retry exactly once on a fresh one. Timeouts are final: the
    // deadline has been spent, and compiles are deterministic, so nothing
    // else distinguishes the attempts.
    if (!response.is_ok() && !transport_ok && !was_fresh && attempt == 0 &&
        !is_timeout(response.status())) {
      continue;
    }
    // Endpoint failure accounting (satellite of the elastic-fleet work): a
    // deadline expiry used to poison only the pooled connection while the
    // endpoint kept its full ring weight — now every final outcome feeds the
    // backoff that decides whether this node keeps its keys.
    if (!response.is_ok()) {
      count_failure(response.status());
      note_result(node, false, is_overloaded(response.status()));
    } else {
      note_result(node, true, false);
    }
    return response;
  }
}

std::vector<Result<CompileResponse>> RemoteCompileClient::compile_batch(
    const std::vector<CompileRequest>& requests) {
  std::vector<Result<CompileResponse>> results;
  results.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    results.emplace_back(Status::error("request not attempted"));
  }
  // Partition by ring routing; each node's share rides one pipeline.
  std::vector<std::vector<std::size_t>> by_node(std::max<std::size_t>(1, nodes_.size()));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].module == nullptr) {
      results[i] = Status::error("compile request has no module");
      continue;
    }
    by_node[pick_node(ir::module_fingerprint(*requests[i].module))].push_back(i);
  }
  ctr_requests_.inc(requests.size());

  for (std::size_t node = 0; node < by_node.size(); ++node) {
    const std::vector<std::size_t>& batch = by_node[node];
    if (batch.empty()) continue;
    for (int attempt = 0;; ++attempt) {
      auto lease = acquire(node, /*force_fresh=*/attempt > 0);
      if (!lease.is_ok()) {
        for (const std::size_t i : batch) results[i] = lease.status();
        break;
      }
      const bool was_fresh = lease.value().fresh;
      bool healthy = true;
      const std::size_t received = run_node_batch(lease.value(), requests, batch, results,
                                                  healthy);
      release(std::move(lease).value(), healthy);
      // Same stale-pool rule as compile(): a pipeline that died before a
      // single response on a pooled connection gets one fresh retry — but a
      // deadline expiry is final (the budget is spent, and the server may
      // still be processing the first copy; re-sending would double-compile).
      const bool timed_out = std::any_of(batch.begin(), batch.end(), [&](std::size_t i) {
        return !results[i].is_ok() && is_timeout(results[i].status());
      });
      if (received == 0 && !healthy && !was_fresh && attempt == 0 && !timed_out) continue;
      break;
    }
    // Per-endpoint accounting on the batch's final outcome: any success
    // clears the streak; a fully-failed share counts one failure (overloaded
    // when any bounce in it was).
    const bool any_ok = std::any_of(batch.begin(), batch.end(),
                                    [&](std::size_t i) { return results[i].is_ok(); });
    const bool any_overloaded = std::any_of(batch.begin(), batch.end(), [&](std::size_t i) {
      return !results[i].is_ok() && is_overloaded(results[i].status());
    });
    note_result(node, any_ok, any_overloaded);
  }
  // Failures are tallied once, on final outcomes (a stale-connection retry
  // that succeeded is not a failure).
  for (const auto& result : results) {
    if (!result.is_ok()) count_failure(result.status());
  }
  return results;
}

std::size_t RemoteCompileClient::run_node_batch(Lease& lease,
                                               const std::vector<CompileRequest>& requests,
                                               const std::vector<std::size_t>& batch,
                                               std::vector<Result<CompileResponse>>& results,
                                               bool& healthy) {
  // The deadline is per request, not per batch: it restarts from every
  // completed frame, so a long pipeline only fails when the *next* answer
  // (or write) stalls for request_deadline — never because the aggregate
  // batch outlived one request's budget.
  net::Deadline deadline = net::deadline_in(config_.request_deadline);
  healthy = true;

  // Write the whole pipeline before reading anything; a failed write aborts
  // the rest (the stream position is unknown past it).
  std::unordered_map<std::uint64_t, std::size_t> in_flight;
  for (const std::size_t i : batch) {
    if (!healthy) {
      results[i] = Status::error("pipeline aborted by earlier write failure");
      continue;
    }
    net::Frame frame;
    frame.type = net::MsgType::kCompile;
    frame.request_id = next_request_id();
    frame.payload = net::encode_compile_request(requests[i]);
    if (const Status s = net::write_frame(lease.stream, frame, deadline); !s.is_ok()) {
      results[i] = s;
      healthy = false;
      continue;
    }
    in_flight.emplace(frame.request_id, i);
    deadline = net::deadline_in(config_.request_deadline);  // progress made
  }

  // Responses may arrive in any order; match them by id.
  std::size_t received = 0;
  while (healthy && !in_flight.empty()) {
    auto reply = net::read_frame(lease.stream, deadline, config_.max_frame_payload);
    Status failure = Status::ok();
    if (!reply.is_ok()) {
      failure = reply.status();
    } else if (reply.value().type == net::MsgType::kError) {
      failure = Status::error(net::decode_status_reply(reply.value().payload).message());
    }
    if (!failure.is_ok()) {
      for (const auto& [id, i] : in_flight) results[i] = failure;
      in_flight.clear();
      healthy = false;
      break;
    }
    const auto it = in_flight.find(reply.value().request_id);
    if (it == in_flight.end()) continue;  // stale tail from a prior lease
    if (reply.value().type == net::MsgType::kOverloaded) {
      // Typed shed bounce for exactly this id; the rest of the pipeline is
      // unaffected and the stream stays on a frame boundary.
      const Status shed = net::decode_status_reply(reply.value().payload);
      results[it->second] =
          shed.is_ok() ? Status::error("overloaded: shed (no detail carried)") : shed;
    } else {
      results[it->second] = net::decode_compile_response(reply.value().payload);
    }
    in_flight.erase(it);
    ++received;
    deadline = net::deadline_in(config_.request_deadline);  // progress made
  }
  // A pipeline aborted mid-write leaves responses unread; fail them too.
  for (const auto& [id, i] : in_flight) {
    results[i] = Status::error("pipeline aborted before this response arrived");
  }
  healthy = healthy && in_flight.empty();
  return received;
}

// ---------------------------------------------------------------------------
// Registry operations
// ---------------------------------------------------------------------------

Result<net::Frame> RemoteCompileClient::exchange_op(std::size_t node, const net::Frame& frame) {
  for (int attempt = 0;; ++attempt) {
    auto lease = acquire(node, /*force_fresh=*/attempt > 0);
    if (!lease.is_ok()) return lease.status();
    const bool was_fresh = lease.value().fresh;
    auto reply = exchange(lease.value(), frame, net::deadline_in(config_.request_deadline));
    release(std::move(lease).value(), reply.is_ok());
    // Stale-pooled-connection retry, as in compile(). Publish is the one
    // non-idempotent op here, but a *transport* failure on a pooled lease
    // happens before the server saw anything — the write landed in a dead
    // socket — so the single retry cannot double-publish.
    if (!reply.is_ok() && !was_fresh && attempt == 0 && !is_timeout(reply.status())) continue;
    return reply;
  }
}

Result<net::PublishReply> RemoteCompileClient::publish(std::size_t node, const std::string& name,
                                                       const PolicyArtifact& artifact) {
  net::Frame frame;
  frame.type = net::MsgType::kPublish;
  frame.request_id = next_request_id();
  frame.payload = net::encode_publish_request(name, serialize_artifact(artifact));
  auto reply = exchange_op(node, frame);
  if (!reply.is_ok()) return reply.status();
  // Partial success (version assigned, some peers missed) is success with
  // peer_failures set — discarding the version would leave the caller
  // unable to reconcile, and retrying would mint a duplicate.
  return net::decode_publish_reply(reply.value().payload);
}

Result<std::vector<net::ModelSummary>> RemoteCompileClient::list_models(std::size_t node) {
  net::Frame frame;
  frame.type = net::MsgType::kListModels;
  frame.request_id = next_request_id();
  auto reply = exchange_op(node, frame);
  if (!reply.is_ok()) return reply.status();
  return net::decode_model_list(reply.value().payload);
}

Result<obs::MetricsSnapshot> RemoteCompileClient::node_stats(std::size_t node) {
  net::Frame frame;
  frame.type = net::MsgType::kStats;
  frame.request_id = next_request_id();
  auto reply = exchange_op(node, frame);
  if (!reply.is_ok()) return reply.status();
  return net::decode_metrics_snapshot(reply.value().payload);
}

Result<net::ProvenanceBatch> RemoteCompileClient::drain_provenance(std::size_t node,
                                                                   std::uint64_t max_records) {
  net::Frame frame;
  frame.type = net::MsgType::kProvenance;
  frame.request_id = next_request_id();
  frame.payload = net::encode_provenance_request({max_records});
  auto reply = exchange_op(node, frame);
  if (!reply.is_ok()) return reply.status();
  return net::decode_provenance_reply(reply.value().payload);
}

Status RemoteCompileClient::canary_control(std::size_t node, const net::CanaryControl& control) {
  net::Frame frame;
  frame.type = net::MsgType::kCanary;
  frame.request_id = next_request_id();
  frame.payload = net::encode_canary_control(control);
  auto reply = exchange_op(node, frame);
  if (!reply.is_ok()) return reply.status();
  return net::decode_status_reply(reply.value().payload);
}

Result<std::string> RemoteCompileClient::node_metrics(std::size_t node) {
  net::Frame frame;
  frame.type = net::MsgType::kMetrics;
  frame.request_id = next_request_id();
  auto reply = exchange_op(node, frame);
  if (!reply.is_ok()) return reply.status();
  if (reply.value().type != net::MsgType::kMetrics) {
    return Status::error("remote client: mismatched reply type");
  }
  return net::decode_metrics_reply(reply.value().payload);
}

}  // namespace autophase::serve
