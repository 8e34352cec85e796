#include "net/wire.hpp"

#include <bit>
#include <cmath>

#include "serve/module_codec.hpp"
#include "serve/serialization.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace autophase::net {

namespace {

using serve::ByteReader;
using serve::ByteWriter;

constexpr std::uint8_t kMaxObjective = static_cast<std::uint8_t>(serve::Objective::kFixedBudget);

void write_provenance(ByteWriter& w, const serve::Provenance& p) {
  w.str(p.model);
  w.u32(p.version);
  w.i32_vec(p.sequence);
  w.u64(p.baseline_cycles);
  w.u64(p.predicted_cycles);
  w.u64(p.measured_cycles);
  w.f64(p.measured_area);
  w.i32(p.beams_evaluated);
}

serve::Provenance read_provenance(ByteReader& r) {
  serve::Provenance p;
  p.model = r.str();
  p.version = r.u32();
  p.sequence = r.i32_vec();
  p.baseline_cycles = r.u64();
  p.predicted_cycles = r.u64();
  p.measured_cycles = r.u64();
  p.measured_area = r.f64();
  p.beams_evaluated = r.i32();
  return p;
}

/// Objective-weights field body (kCompileTagWeights): weight bit patterns +
/// the requested front width. Weights travel as raw f64 bits like every
/// other double on this wire, so a decoded request re-encodes bit-exactly.
std::string weights_field(const serve::ObjectiveWeights& weights, int front_width) {
  ByteWriter field;
  field.f64(weights.cycles);
  field.f64(weights.area);
  field.f64(weights.ir_size);
  field.u32(static_cast<std::uint32_t>(front_width));
  return field.take();
}

/// False on a corrupt field: wrong size, non-finite or negative weights, or
/// an absurd front width. A known tag with a bad body is a hard error (the
/// peer speaks v4 and sent garbage), unlike unknown tags which are skipped.
bool read_weights_field(std::string_view field, serve::ObjectiveWeights& weights,
                        int& front_width) {
  ByteReader f(field);
  weights.cycles = f.f64();
  weights.area = f.f64();
  weights.ir_size = f.f64();
  const std::uint32_t width = f.u32();
  if (!f.ok() || !f.at_end()) return false;
  for (const double w : {weights.cycles, weights.area, weights.ir_size}) {
    if (!std::isfinite(w) || w < 0.0) return false;
  }
  if (width == 0 || width > 4096) return false;
  front_width = static_cast<int>(width);
  return true;
}

/// Pareto-front field body (kCompileTagFront): hypervolume + the point set
/// in the canonical order the Pareto decode returned it in.
std::string front_field(const serve::CompileResponse& response) {
  ByteWriter field;
  field.f64(response.front_hypervolume);
  field.u32(static_cast<std::uint32_t>(response.front.size()));
  for (const serve::ParetoPoint& p : response.front) {
    field.i32_vec(p.sequence);
    field.u64(p.cycles);
    field.f64(p.area);
    field.u64(p.ir_size);
    field.u64(p.fingerprint);
  }
  return field.take();
}

bool read_front_field(std::string_view field, serve::CompileResponse& response) {
  ByteReader f(field);
  response.front_hypervolume = f.f64();
  const std::uint32_t count = f.u32();
  if (!f.ok()) return false;
  // Guard in entries, not bytes: each point is at least 36 bytes (empty
  // sequence), so a corrupt count fails before it can size an allocation.
  if (count == 0 || count > f.remaining() / 36) return false;
  response.front.reserve(count);
  for (std::uint32_t i = 0; i < count && f.ok(); ++i) {
    serve::ParetoPoint p;
    p.sequence = f.i32_vec();
    p.cycles = f.u64();
    p.area = f.f64();
    p.ir_size = f.u64();
    p.fingerprint = f.u64();
    response.front.push_back(std::move(p));
  }
  return f.ok() && f.at_end();
}

/// ok flag + error text; returns true when the payload continues with a body.
void write_status_prefix(ByteWriter& w, const Status& status) {
  w.u8(status.is_ok() ? 1 : 0);
  if (!status.is_ok()) w.str(status.message());
}

/// Reads the shared prefix. ok() on the reader still needs checking.
Status read_status_prefix(ByteReader& r) {
  if (r.u8() != 0) return Status::ok();
  std::string message = r.str();
  return Status::error(message.empty() ? "remote error (no message)" : message);
}

/// Sparse histogram encoding: spec + totals + only the non-zero buckets.
/// A latency histogram touches a handful of its 96 buckets, so this is
/// smaller than a dense dump and never larger than ~12 bytes per bucket.
void write_histogram(ByteWriter& w, const obs::HistogramSnapshot& h) {
  w.f64(h.spec.min);
  w.f64(h.spec.growth);
  w.u32(h.spec.buckets);
  w.u64(h.count);
  w.f64(h.sum);
  w.f64(h.min);
  w.f64(h.max);
  std::uint32_t nonzero = 0;
  for (const std::uint64_t c : h.counts) {
    if (c != 0) ++nonzero;
  }
  w.u32(nonzero);
  for (std::uint32_t i = 0; i < h.counts.size(); ++i) {
    if (h.counts[i] == 0) continue;
    w.u32(i);
    w.u64(h.counts[i]);
  }
}

/// False on malformed input (reader error, absurd bucket count, index out of
/// range); the snapshot always comes back with spec.buckets dense counts.
bool read_histogram(ByteReader& r, obs::HistogramSnapshot& h) {
  h.spec.min = r.f64();
  h.spec.growth = r.f64();
  h.spec.buckets = r.u32();
  h.count = r.u64();
  h.sum = r.f64();
  h.min = r.f64();
  h.max = r.f64();
  const std::uint32_t nonzero = r.u32();
  if (!r.ok() || h.spec.buckets == 0 || h.spec.buckets > (1u << 16)) return false;
  // Guard in entries (u32 index + u64 count each), not bytes: a corrupt
  // count must fail before it can size an allocation.
  if (nonzero > h.spec.buckets || nonzero > r.remaining() / 12) return false;
  h.counts.assign(h.spec.buckets, 0);
  for (std::uint32_t i = 0; i < nonzero && r.ok(); ++i) {
    const std::uint32_t idx = r.u32();
    const std::uint64_t count = r.u64();
    if (idx >= h.spec.buckets) return false;
    h.counts[idx] = count;
  }
  return r.ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// Compile
// ---------------------------------------------------------------------------

std::string encode_compile_request(const serve::CompileRequest& request) {
  ByteWriter w;
  w.str(serve::serialize_module(*request.module));
  w.u8(static_cast<std::uint8_t>(request.objective));
  w.i32(request.pass_budget);
  w.i32(request.beam_width);
  w.str(request.model);
  w.u64(std::bit_cast<std::uint64_t>(static_cast<std::int64_t>(request.version)));
  w.i32(request.priority);
  // Optional tagged trailer. Nothing is emitted for an untraced request, so
  // its bytes stay identical to the pre-trace encoding and old peers decode
  // them unchanged.
  if (request.trace.valid()) {
    ByteWriter field;
    field.u64(request.trace.trace.hi);
    field.u64(request.trace.trace.lo);
    field.u64(request.trace.span);
    w.u8(kCompileTagTrace);
    w.str(field.take());
  }
  // Same discipline for the v4 objective-weights field: scalar requests emit
  // nothing and stay byte-identical to the v3 encoding.
  if (request.weights.active()) {
    w.u8(kCompileTagWeights);
    w.str(weights_field(request.weights, request.front_width));
  }
  // And for the v5 deadline field: deadline-less requests emit nothing and
  // stay byte-identical to the v4 encoding.
  if (request.deadline_ms > 0) {
    ByteWriter field;
    field.u64(request.deadline_ms);
    w.u8(kCompileTagDeadline);
    w.str(field.take());
  }
  return w.take();
}

Result<DecodedCompileRequest> decode_compile_request(std::string_view payload) {
  ByteReader r(payload);
  const std::string module_blob = r.str();
  DecodedCompileRequest out;
  const std::uint8_t objective = r.u8();
  if (objective > kMaxObjective) return Status::error("compile request: unknown objective");
  out.request.objective = static_cast<serve::Objective>(objective);
  out.request.pass_budget = r.i32();
  out.request.beam_width = r.i32();
  out.request.model = r.str();
  out.request.version = std::bit_cast<std::int64_t>(r.u64());
  out.request.priority = r.i32();
  // Tagged optional trailer: every field is length-prefixed, so a decoder
  // skips tags it does not recognise — fields added later pass through old
  // decoders instead of failing them.
  while (r.ok() && !r.at_end()) {
    const std::uint8_t tag = r.u8();
    const std::string field = r.str();
    if (!r.ok()) break;
    if (tag == kCompileTagTrace) {
      ByteReader f(field);
      out.request.trace.trace.hi = f.u64();
      out.request.trace.trace.lo = f.u64();
      out.request.trace.span = f.u64();
      if (!f.ok() || !f.at_end()) {
        return Status::error("compile request: corrupt trace field");
      }
    } else if (tag == kCompileTagWeights) {
      if (!read_weights_field(field, out.request.weights, out.request.front_width)) {
        return Status::error("compile request: corrupt weights field");
      }
    } else if (tag == kCompileTagDeadline) {
      ByteReader f(field);
      out.request.deadline_ms = f.u64();
      if (!f.ok() || !f.at_end() || out.request.deadline_ms == 0) {
        return Status::error("compile request: corrupt deadline field");
      }
    }
  }
  if (!r.ok() || !r.at_end()) return Status::error("compile request: truncated payload");
  auto module = serve::deserialize_module(module_blob);
  if (!module.is_ok()) return Status::error("compile request: " + module.message());
  out.module = std::move(module).value();
  out.request.module = out.module.get();
  return out;
}

std::string encode_compile_response(const Result<serve::CompileResponse>& response) {
  ByteWriter w;
  write_status_prefix(w, response.status());
  if (response.is_ok()) {
    write_provenance(w, response.value().provenance);
    w.str(serve::serialize_module(*response.value().module));
    w.u64(response.value().queue_nanos);
    w.u64(response.value().serve_nanos);
    // Optional tagged trailer, mirroring the request side: nothing is
    // emitted for non-canary responses, so shadow-off serving stays
    // byte-identical to the pre-canary encoding.
    if (response.value().provenance.canary) {
      ByteWriter field;
      field.u8(1);
      w.u8(kCompileTagCanary);
      w.str(field.take());
    }
    // Pareto front (v4): present exactly when the request carried active
    // weights; scalar responses stay byte-identical to the v3 encoding.
    if (!response.value().front.empty()) {
      w.u8(kCompileTagFront);
      w.str(front_field(response.value()));
    }
  }
  return w.take();
}

Result<serve::CompileResponse> decode_compile_response(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  serve::CompileResponse response;
  response.provenance = read_provenance(r);
  const std::string module_blob = r.str();
  response.queue_nanos = r.u64();
  response.serve_nanos = r.u64();
  while (r.ok() && !r.at_end()) {
    const std::uint8_t tag = r.u8();
    const std::string field = r.str();
    if (!r.ok()) break;
    if (tag == kCompileTagCanary) {
      ByteReader f(field);
      const std::uint8_t flag = f.u8();
      if (!f.ok() || !f.at_end() || flag > 1) {
        return Status::error("compile response: corrupt canary field");
      }
      response.provenance.canary = flag != 0;
    } else if (tag == kCompileTagFront) {
      if (!read_front_field(field, response)) {
        return Status::error("compile response: corrupt front field");
      }
    }
  }
  if (!r.ok() || !r.at_end()) return Status::error("compile response: truncated payload");
  auto module = serve::deserialize_module(module_blob);
  if (!module.is_ok()) return Status::error("compile response: " + module.message());
  response.module = std::move(module).value();
  return response;
}

std::string response_identity_bytes(const serve::CompileResponse& response) {
  ByteWriter w;
  write_provenance(w, response.provenance);
  w.str(serve::serialize_module(*response.module));
  // The front is part of the response's identity — two replicas serving a
  // Pareto request must agree on the whole nondominated set, not just the
  // representative point. Scalar responses append nothing (pre-v4 bytes).
  if (!response.front.empty()) w.str(front_field(response));
  return w.take();
}

// ---------------------------------------------------------------------------
// Publish / replicate
// ---------------------------------------------------------------------------

std::string encode_publish_request(std::string_view name, std::string_view artifact_blob) {
  ByteWriter w;
  w.str(name);
  w.str(artifact_blob);
  return w.take();
}

Result<PublishRequest> decode_publish_request(std::string_view payload) {
  ByteReader r(payload);
  PublishRequest out;
  out.name = r.str();
  out.artifact_blob = r.str();
  if (!r.ok() || !r.at_end()) return Status::error("publish request: truncated payload");
  if (out.name.empty()) return Status::error("publish request: empty model name");
  return out;
}

std::string encode_publish_reply(const Result<PublishReply>& reply) {
  ByteWriter w;
  write_status_prefix(w, reply.status());
  if (reply.is_ok()) {
    w.str(reply.value().name);
    w.u32(reply.value().version);
    w.u32(reply.value().peer_failures);
  }
  return w.take();
}

Result<PublishReply> decode_publish_reply(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  PublishReply reply;
  reply.name = r.str();
  reply.version = r.u32();
  reply.peer_failures = r.u32();
  if (!r.ok() || !r.at_end()) return Status::error("publish reply: truncated payload");
  return reply;
}

// ---------------------------------------------------------------------------
// Model listing
// ---------------------------------------------------------------------------

std::string encode_model_list(const std::vector<ModelSummary>& models) {
  ByteWriter w;
  w.u8(1);
  w.u64(models.size());
  for (const ModelSummary& m : models) {
    w.str(m.name);
    w.u32(m.version);
    w.u64(m.blob_bytes);
    w.u64(m.blob_checksum);
  }
  return w.take();
}

Result<std::vector<ModelSummary>> decode_model_list(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  const std::uint64_t n = r.u64();
  // Each entry is at least a name length prefix (8) + u32 + u64 + u64: the
  // count guard must be in entries, not bytes, or a corrupt count triggers a
  // count-sized allocation before the per-entry reads can fail.
  if (!r.ok() || n > r.remaining() / 28) return Status::error("model list: corrupt count");
  std::vector<ModelSummary> models;
  models.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    ModelSummary m;
    m.name = r.str();
    m.version = r.u32();
    m.blob_bytes = r.u64();
    m.blob_checksum = r.u64();
    models.push_back(std::move(m));
  }
  if (!r.ok() || !r.at_end()) return Status::error("model list: truncated payload");
  return models;
}

// ---------------------------------------------------------------------------
// Node stats
// ---------------------------------------------------------------------------

NodeStats collect_node_stats(const serve::CompileService& service) {
  const serve::ServeMetrics metrics = service.metrics();
  const runtime::EvalStats eval = service.eval_service()->stats();
  NodeStats stats;
  stats.completed = metrics.completed;
  stats.failed = metrics.failed;
  stats.rejected = metrics.rejected;
  stats.queue_depth = metrics.queue_depth;
  stats.p50_ms = metrics.latency.p50_ms;
  stats.p95_ms = metrics.latency.p95_ms;
  stats.eval_hits = eval.hits;
  stats.eval_misses = eval.misses;
  stats.eval_sequence_hits = eval.sequence_hits;
  stats.eval_primed = eval.primed;
  stats.models = service.registry()->size();
  stats.latency_hist = metrics.latency_hist;
  stats.per_model = metrics.per_model;
  stats.objective_completed = metrics.objective_completed;
  // counter() creates-or-returns, so nodes that never saw a canary report 0
  // rather than omitting the fields. The provenance-log fields are filled by
  // ServeNode::stats(), which owns the log.
  stats.learn_promoted = service.metrics_registry()->counter("learn_promoted").value();
  stats.learn_rolled_back = service.metrics_registry()->counter("learn_rolled_back").value();
  // Overload-control counters (v6); the membership fields are filled by
  // ServeNode::stats(), which owns the table — a bare service has none.
  stats.shed_overload = service.metrics_registry()->counter("serve_shed_overload").value();
  stats.shed_deadline = service.metrics_registry()->counter("serve_shed_deadline").value();
  return stats;
}

std::string encode_node_stats(const NodeStats& stats) {
  ByteWriter w;
  w.u8(1);
  w.u32(kNodeStatsVersion);
  w.u64(stats.completed);
  w.u64(stats.failed);
  w.u64(stats.rejected);
  w.u64(stats.queue_depth);
  w.f64(stats.p50_ms);
  w.f64(stats.p95_ms);
  w.u64(stats.eval_hits);
  w.u64(stats.eval_misses);
  w.u64(stats.eval_sequence_hits);
  w.u64(stats.eval_primed);
  w.u64(stats.models);
  w.u64(stats.gossip_rounds);
  w.u64(stats.gossip_fetched);
  w.u64(stats.last_sync_age_ms);
  write_histogram(w, stats.latency_hist);
  w.u64(stats.per_model.size());
  for (const serve::ModelVersionStats& m : stats.per_model) {
    w.str(m.model);
    w.u32(m.version);
    w.u64(m.completed);
    w.u64(m.failed);
  }
  for (const std::uint64_t count : stats.objective_completed) w.u64(count);
  w.u64(stats.learn_promoted);
  w.u64(stats.learn_rolled_back);
  w.u64(stats.provenance_pending);
  w.u64(stats.provenance_dropped);
  w.u64(stats.shed_overload);
  w.u64(stats.shed_deadline);
  w.u64(stats.members_alive);
  w.u64(stats.members_suspect);
  w.u64(stats.members_dead);
  return w.take();
}

Result<NodeStats> decode_node_stats(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  const std::uint32_t version = r.u32();
  if (!r.ok() || version != kNodeStatsVersion) {
    return Status::error(strf("node stats: unsupported stats version %u (expected %u)",
                              version, kNodeStatsVersion));
  }
  NodeStats stats;
  stats.completed = r.u64();
  stats.failed = r.u64();
  stats.rejected = r.u64();
  stats.queue_depth = r.u64();
  stats.p50_ms = r.f64();
  stats.p95_ms = r.f64();
  stats.eval_hits = r.u64();
  stats.eval_misses = r.u64();
  stats.eval_sequence_hits = r.u64();
  stats.eval_primed = r.u64();
  stats.models = r.u64();
  stats.gossip_rounds = r.u64();
  stats.gossip_fetched = r.u64();
  stats.last_sync_age_ms = r.u64();
  if (!read_histogram(r, stats.latency_hist)) {
    return Status::error("node stats: corrupt latency histogram");
  }
  const std::uint64_t models = r.u64();
  // Each entry is at least a name length prefix (8) + u32 + 2 x u64.
  if (!r.ok() || models > r.remaining() / 28) {
    return Status::error("node stats: corrupt model count");
  }
  stats.per_model.reserve(models);
  for (std::uint64_t i = 0; i < models && r.ok(); ++i) {
    serve::ModelVersionStats m;
    m.model = r.str();
    m.version = r.u32();
    m.completed = r.u64();
    m.failed = r.u64();
    stats.per_model.push_back(std::move(m));
  }
  for (std::uint64_t& count : stats.objective_completed) count = r.u64();
  stats.learn_promoted = r.u64();
  stats.learn_rolled_back = r.u64();
  stats.provenance_pending = r.u64();
  stats.provenance_dropped = r.u64();
  stats.shed_overload = r.u64();
  stats.shed_deadline = r.u64();
  stats.members_alive = r.u64();
  stats.members_suspect = r.u64();
  stats.members_dead = r.u64();
  if (!r.ok() || !r.at_end()) return Status::error("node stats: truncated payload");
  return stats;
}

// ---------------------------------------------------------------------------
// Provenance drain
// ---------------------------------------------------------------------------

std::string encode_provenance_request(const ProvenanceDrainRequest& request) {
  ByteWriter w;
  w.u64(request.max_records);
  return w.take();
}

Result<ProvenanceDrainRequest> decode_provenance_request(std::string_view payload) {
  ByteReader r(payload);
  ProvenanceDrainRequest request;
  request.max_records = r.u64();
  if (!r.ok() || !r.at_end()) return Status::error("provenance request: truncated payload");
  if (request.max_records == 0) return Status::error("provenance request: zero max_records");
  return request;
}

std::string encode_provenance_reply(const Result<ProvenanceBatch>& reply) {
  ByteWriter w;
  write_status_prefix(w, reply.status());
  if (!reply.is_ok()) return w.take();
  const ProvenanceBatch& batch = reply.value();
  w.u32(learn::kProvenanceRecordVersion);
  w.u64(batch.remaining);
  w.u64(batch.dropped);
  w.u64(batch.records.size());
  for (const learn::ProvenanceRecord& record : batch.records) {
    learn::write_provenance_record(w, record);
  }
  return w.take();
}

Result<ProvenanceBatch> decode_provenance_reply(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  const std::uint32_t version = r.u32();
  if (!r.ok() || version == 0 || version > learn::kProvenanceRecordVersion) {
    return Status::error(strf("provenance reply: unsupported record version %u", version));
  }
  ProvenanceBatch batch;
  batch.remaining = r.u64();
  batch.dropped = r.u64();
  const std::uint64_t n = r.u64();
  // Guard in minimum encoded records, not bytes: a hostile count must fail
  // before it can size the vector.
  if (!r.ok() || n > r.remaining() / learn::kMinRecordBytes) {
    return Status::error("provenance reply: corrupt record count");
  }
  batch.records.resize(static_cast<std::size_t>(n));
  for (learn::ProvenanceRecord& record : batch.records) {
    if (!learn::read_provenance_record(r, record, version)) {
      return Status::error("provenance reply: malformed record");
    }
  }
  if (!r.ok() || !r.at_end()) return Status::error("provenance reply: truncated payload");
  return batch;
}

// ---------------------------------------------------------------------------
// Canary control
// ---------------------------------------------------------------------------

std::string encode_canary_control(const CanaryControl& control) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(control.action));
  w.str(control.model);
  w.str(control.canary_model);
  w.u32(control.canary_version);
  w.f64(control.fraction);
  return w.take();
}

Result<CanaryControl> decode_canary_control(std::string_view payload) {
  ByteReader r(payload);
  CanaryControl control;
  const std::uint8_t action = r.u8();
  if (action > static_cast<std::uint8_t>(CanaryAction::kRolledBack)) {
    return Status::error("canary control: unknown action");
  }
  control.action = static_cast<CanaryAction>(action);
  control.model = r.str();
  control.canary_model = r.str();
  control.canary_version = r.u32();
  control.fraction = r.f64();
  if (!r.ok() || !r.at_end()) return Status::error("canary control: truncated payload");
  if (control.model.empty()) return Status::error("canary control: empty model name");
  if (control.action == CanaryAction::kStart) {
    if (control.canary_model.empty()) {
      return Status::error("canary control: start without a canary model");
    }
    // !(x >= 0 && x <= 1) also catches NaN smuggled through the f64 bits.
    if (!(control.fraction >= 0.0 && control.fraction <= 1.0)) {
      return Status::error("canary control: fraction outside [0, 1]");
    }
  }
  return control;
}

// ---------------------------------------------------------------------------
// Replication catch-up
// ---------------------------------------------------------------------------

namespace {

/// Field body shared by kSyncTagInventory (and the kInventory offer body's
/// layout): u64 count + (name, version, bytes, checksum) per model.
std::string model_summaries_field(const std::vector<ModelSummary>& models) {
  ByteWriter field;
  field.u64(models.size());
  for (const ModelSummary& m : models) {
    field.str(m.name);
    field.u32(m.version);
    field.u64(m.blob_bytes);
    field.u64(m.blob_checksum);
  }
  return field.take();
}

bool read_model_summaries_field(std::string_view bytes, std::vector<ModelSummary>& out) {
  ByteReader f(bytes);
  const std::uint64_t n = f.u64();
  if (!f.ok() || n > f.remaining() / 28) return false;
  out.clear();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n && f.ok(); ++i) {
    ModelSummary m;
    m.name = f.str();
    m.version = f.u32();
    m.blob_bytes = f.u64();
    m.blob_checksum = f.u64();
    out.push_back(std::move(m));
  }
  return f.ok() && f.at_end();
}

/// Field body for kSyncTagWants: u64 count + (name, version) per key.
std::string sync_keys_field(const std::vector<SyncKey>& keys) {
  ByteWriter field;
  field.u64(keys.size());
  for (const SyncKey& key : keys) {
    field.str(key.name);
    field.u32(key.version);
  }
  return field.take();
}

bool read_sync_keys_field(std::string_view bytes, std::vector<SyncKey>& out) {
  ByteReader f(bytes);
  const std::uint64_t n = f.u64();
  if (!f.ok() || n > f.remaining() / 12) return false;
  out.clear();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n && f.ok(); ++i) {
    SyncKey key;
    key.name = f.str();
    key.version = f.u32();
    out.push_back(std::move(key));
  }
  return f.ok() && f.at_end();
}

}  // namespace

std::string encode_sync_request(const SyncRequest& request) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(request.mode));
  w.u64(request.keys.size());
  for (const SyncKey& key : request.keys) {
    w.str(key.name);
    w.u32(key.version);
  }
  // Optional tagged trailer (v5). A request from a node without membership
  // or hybrid push emits zero trailer fields — byte-identical to the v4
  // encoding — which is what the bit-identity tests pin.
  if (!request.rumors.empty()) {
    w.u8(kSyncTagRumors);
    w.str(encode_member_rumors(request.rumors));
  }
  if (!request.push_inventory.empty()) {
    w.u8(kSyncTagInventory);
    w.str(model_summaries_field(request.push_inventory));
  }
  return w.take();
}

Result<SyncRequest> decode_sync_request(std::string_view payload) {
  ByteReader r(payload);
  SyncRequest request;
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(SyncMode::kFetch)) {
    return Status::error("sync request: unknown mode");
  }
  request.mode = static_cast<SyncMode>(mode);
  const std::uint64_t n = r.u64();
  // Each key is at least a name length prefix (8) + u32 version.
  if (!r.ok() || n > r.remaining() / 12) return Status::error("sync request: corrupt key count");
  request.keys.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    SyncKey key;
    key.name = r.str();
    key.version = r.u32();
    request.keys.push_back(std::move(key));
  }
  // Tagged optional trailer: unknown tags are skipped, known tags with
  // corrupt bodies are hard errors — same rules as compile payloads.
  while (r.ok() && !r.at_end()) {
    const std::uint8_t tag = r.u8();
    const std::string field = r.str();
    if (!r.ok()) break;
    if (tag == kSyncTagRumors) {
      if (const Status s = decode_member_rumors(field, request.rumors); !s.is_ok()) {
        return Status::error("sync request: " + s.message());
      }
    } else if (tag == kSyncTagInventory) {
      if (!read_model_summaries_field(field, request.push_inventory)) {
        return Status::error("sync request: corrupt push inventory field");
      }
    }
  }
  if (!r.ok() || !r.at_end()) return Status::error("sync request: truncated payload");
  if (request.mode == SyncMode::kInventory && !request.keys.empty()) {
    return Status::error("sync request: inventory query carries keys");
  }
  return request;
}

std::string encode_sync_offer(const Result<SyncOffer>& offer) {
  ByteWriter w;
  write_status_prefix(w, offer.status());
  if (!offer.is_ok()) return w.take();
  const SyncOffer& o = offer.value();
  w.u8(static_cast<std::uint8_t>(o.mode));
  if (o.mode == SyncMode::kInventory) {
    w.u64(o.inventory.size());
    for (const ModelSummary& m : o.inventory) {
      w.str(m.name);
      w.u32(m.version);
      w.u64(m.blob_bytes);
      w.u64(m.blob_checksum);
    }
  } else {
    w.u64(o.blobs.size());
    for (const std::string& blob : o.blobs) w.str(blob);
  }
  // Optional tagged trailer (v5), mirroring the request side: offers from
  // membership-less nodes emit zero new bytes.
  if (!o.rumors.empty()) {
    w.u8(kSyncTagRumors);
    w.str(encode_member_rumors(o.rumors));
  }
  if (!o.wants.empty()) {
    w.u8(kSyncTagWants);
    w.str(sync_keys_field(o.wants));
  }
  return w.take();
}

Result<SyncOffer> decode_sync_offer(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  SyncOffer offer;
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(SyncMode::kFetch)) {
    return Status::error("sync offer: unknown mode");
  }
  offer.mode = static_cast<SyncMode>(mode);
  const std::uint64_t n = r.u64();
  if (offer.mode == SyncMode::kInventory) {
    if (!r.ok() || n > r.remaining() / 28) return Status::error("sync offer: corrupt count");
    offer.inventory.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      ModelSummary m;
      m.name = r.str();
      m.version = r.u32();
      m.blob_bytes = r.u64();
      m.blob_checksum = r.u64();
      offer.inventory.push_back(std::move(m));
    }
  } else {
    // Each blob is at least its own length prefix.
    if (!r.ok() || n > r.remaining() / 8) return Status::error("sync offer: corrupt count");
    offer.blobs.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) offer.blobs.push_back(r.str());
  }
  while (r.ok() && !r.at_end()) {
    const std::uint8_t tag = r.u8();
    const std::string field = r.str();
    if (!r.ok()) break;
    if (tag == kSyncTagRumors) {
      if (const Status s = decode_member_rumors(field, offer.rumors); !s.is_ok()) {
        return Status::error("sync offer: " + s.message());
      }
    } else if (tag == kSyncTagWants) {
      if (!read_sync_keys_field(field, offer.wants)) {
        return Status::error("sync offer: corrupt wants field");
      }
    }
  }
  if (!r.ok() || !r.at_end()) return Status::error("sync offer: truncated payload");
  return offer;
}

// ---------------------------------------------------------------------------
// Metrics scrape
// ---------------------------------------------------------------------------

std::string encode_metrics_reply(const Result<std::string>& text) {
  ByteWriter w;
  write_status_prefix(w, text.status());
  if (text.is_ok()) w.str(text.value());
  return w.take();
}

Result<std::string> decode_metrics_reply(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  std::string text = r.str();
  if (!r.ok() || !r.at_end()) return Status::error("metrics reply: truncated payload");
  return text;
}

// ---------------------------------------------------------------------------
// Status-only replies
// ---------------------------------------------------------------------------

std::string encode_status_reply(const Status& status) {
  ByteWriter w;
  write_status_prefix(w, status);
  return w.take();
}

Status decode_status_reply(std::string_view payload) {
  ByteReader r(payload);
  const Status prefix = read_status_prefix(r);
  if (!r.ok()) return Status::error("status reply: truncated payload");
  return prefix;
}

}  // namespace autophase::net
