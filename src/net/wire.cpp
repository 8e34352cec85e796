#include "net/wire.hpp"

#include <bit>
#include <cmath>
#include <map>

#include "serve/module_codec.hpp"
#include "serve/serialization.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace autophase::net {

namespace {

using serve::ByteReader;
using serve::ByteWriter;
using serve::ListRead;
using serve::read_fields;
using serve::read_list;
using serve::write_field;
using serve::write_list;

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
void write_weights(ByteWriter& w, const serve::ObjectiveWeights& weights, int front_width) {
  w.f64(weights.cycles);
  w.f64(weights.area);
  w.f64(weights.ir_size);
  w.u32(static_cast<std::uint32_t>(front_width));
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
void write_front(ByteWriter& w, const serve::CompileResponse& response) {
  w.f64(response.front_hypervolume);
  w.u32(static_cast<std::uint32_t>(response.front.size()));
  for (const serve::ParetoPoint& p : response.front) {
    w.i32_vec(p.sequence);
    w.u64(p.cycles);
    w.f64(p.area);
    w.u64(p.ir_size);
    w.u64(p.fingerprint);
  }
}

bool read_front_field(std::string_view field, serve::CompileResponse& response) {
  ByteReader f(field);
  response.front_hypervolume = f.f64();
  const std::uint32_t count = f.u32();
  if (!f.ok()) return false;
  // Guard in entries, not bytes: each point is at least 40 bytes (an empty
  // sequence's u64 length + four 8-byte fields), so a corrupt count fails
  // before it can size an allocation.
  if (count == 0 || count > f.remaining() / 40) return false;
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

/// Smallest encoded ModelSummary: an empty name's length prefix (8) + u32
/// version + u64 blob bytes + u64 checksum.
constexpr std::size_t kMinSummaryBytes = 28;

void write_summary(ByteWriter& w, const ModelSummary& m) {
  w.str(m.name);
  w.u32(m.version);
  w.u64(m.blob_bytes);
  w.u64(m.blob_checksum);
}

bool read_summary(ByteReader& r, ModelSummary& m) {
  m.name = r.str();
  m.version = r.u32();
  m.blob_bytes = r.u64();
  m.blob_checksum = r.u64();
  return true;
}

/// Smallest encoded SyncKey: an empty name's length prefix (8) + u32 version.
constexpr std::size_t kMinSyncKeyBytes = 12;

void write_sync_key(ByteWriter& w, const SyncKey& key) {
  w.str(key.name);
  w.u32(key.version);
}

bool read_sync_key(ByteReader& r, SyncKey& key) {
  key.name = r.str();
  key.version = r.u32();
  return true;
}

/// A trailer field whose body is exactly one write_list list.
template <typename T, typename ReadEntry>
bool read_list_field(std::string_view body, std::size_t min_entry_bytes, std::vector<T>& out,
                     ReadEntry&& read_entry) {
  ByteReader f(body);
  return read_list(f, min_entry_bytes, out, read_entry) == ListRead::kOk && f.at_end();
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

/// False on malformed input (reader error, a bucket spec other than the
/// shared obs::HistogramSpec{}, index out of range); the snapshot always
/// comes back with spec.buckets dense counts. Fleet quantiles sum buckets
/// index by index, which only means anything when every node uses the one
/// layout, so a foreign spec is refused before anything is allocated.
bool read_histogram(ByteReader& r, obs::HistogramSnapshot& h) {
  h.spec.min = r.f64();
  h.spec.growth = r.f64();
  h.spec.buckets = r.u32();
  h.count = r.u64();
  h.sum = r.f64();
  h.min = r.f64();
  h.max = r.f64();
  const std::uint32_t nonzero = r.u32();
  if (!r.ok() || !(h.spec == obs::HistogramSpec{})) return false;
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
  w.prefixed([&](ByteWriter& blob) { serve::serialize_module(blob, *request.module); });
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
    write_field(w, kCompileTagTrace, [&](ByteWriter& f) {
      f.u64(request.trace.trace.hi);
      f.u64(request.trace.trace.lo);
      f.u64(request.trace.span);
    });
  }
  // Same discipline for the v4 objective-weights field: scalar requests emit
  // nothing and stay byte-identical to the v3 encoding.
  if (request.weights.active()) {
    write_field(w, kCompileTagWeights, [&](ByteWriter& f) {
      write_weights(f, request.weights, request.front_width);
    });
  }
  // And for the v5 deadline field: deadline-less requests emit nothing and
  // stay byte-identical to the v4 encoding.
  if (request.deadline_ms > 0) {
    write_field(w, kCompileTagDeadline, [&](ByteWriter& f) { f.u64(request.deadline_ms); });
  }
  return w.take();
}

Result<DecodedCompileRequest> decode_compile_request(std::string_view payload) {
  ByteReader r(payload);
  const std::string_view module_blob = r.str_view();
  DecodedCompileRequest out;
  serve::CompileRequest& request = out.request;
  const std::uint8_t objective = r.u8();
  if (objective > kMaxObjective) return Status::error("compile request: unknown objective");
  request.objective = static_cast<serve::Objective>(objective);
  request.pass_budget = r.i32();
  request.beam_width = r.i32();
  request.model = r.str();
  request.version = std::bit_cast<std::int64_t>(r.u64());
  request.priority = r.i32();
  const Status fields =
      read_fields(r, "compile request", [&](std::uint8_t tag, std::string_view body) {
        ByteReader f(body);
        switch (tag) {
          case kCompileTagTrace:
            request.trace.trace.hi = f.u64();
            request.trace.trace.lo = f.u64();
            request.trace.span = f.u64();
            if (f.ok() && f.at_end()) return Status::ok();
            return Status::error("compile request: corrupt trace field");
          case kCompileTagWeights:
            if (read_weights_field(body, request.weights, request.front_width)) {
              return Status::ok();
            }
            return Status::error("compile request: corrupt weights field");
          case kCompileTagDeadline:
            request.deadline_ms = f.u64();
            if (f.ok() && f.at_end() && request.deadline_ms != 0) return Status::ok();
            return Status::error("compile request: corrupt deadline field");
          default:  // a newer peer's field: skipped
            return Status::ok();
        }
      });
  if (!fields.is_ok()) return fields;
  auto module = serve::deserialize_module(module_blob);
  if (!module.is_ok()) return Status::error("compile request: " + module.message());
  out.module = std::move(module).value();
  request.module = out.module.get();
  return out;
}

std::string encode_compile_response(const Result<serve::CompileResponse>& response) {
  ByteWriter w;
  write_status_prefix(w, response.status());
  if (response.is_ok()) {
    write_provenance(w, response.value().provenance);
    w.prefixed([&](ByteWriter& blob) { serve::serialize_module(blob, *response.value().module); });
    w.u64(response.value().queue_nanos);
    w.u64(response.value().serve_nanos);
    // Optional tagged trailer, mirroring the request side: nothing is
    // emitted for non-canary responses, so shadow-off serving stays
    // byte-identical to the pre-canary encoding.
    if (response.value().provenance.canary) {
      write_field(w, kCompileTagCanary, [](ByteWriter& f) { f.u8(1); });
    }
    // Pareto front (v4): present exactly when the request carried active
    // weights; scalar responses stay byte-identical to the v3 encoding.
    if (!response.value().front.empty()) {
      write_field(w, kCompileTagFront, [&](ByteWriter& f) { write_front(f, response.value()); });
    }
  }
  return w.take();
}

Result<serve::CompileResponse> decode_compile_response(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  serve::CompileResponse response;
  response.provenance = read_provenance(r);
  const std::string_view module_blob = r.str_view();
  response.queue_nanos = r.u64();
  response.serve_nanos = r.u64();
  const Status fields =
      read_fields(r, "compile response", [&](std::uint8_t tag, std::string_view body) {
        switch (tag) {
          case kCompileTagCanary: {
            ByteReader f(body);
            const std::uint8_t flag = f.u8();
            if (!f.ok() || !f.at_end() || flag > 1) {
              return Status::error("compile response: corrupt canary field");
            }
            response.provenance.canary = flag != 0;
            return Status::ok();
          }
          case kCompileTagFront:
            if (read_front_field(body, response)) return Status::ok();
            return Status::error("compile response: corrupt front field");
          default:
            return Status::ok();
        }
      });
  if (!fields.is_ok()) return fields;
  auto module = serve::deserialize_module(module_blob);
  if (!module.is_ok()) return Status::error("compile response: " + module.message());
  response.module = std::move(module).value();
  return response;
}

std::string response_identity_bytes(const serve::CompileResponse& response) {
  ByteWriter w;
  write_provenance(w, response.provenance);
  w.prefixed([&](ByteWriter& blob) { serve::serialize_module(blob, *response.module); });
  // The front is part of the response's identity — two replicas serving a
  // Pareto request must agree on the whole nondominated set, not just the
  // representative point. Scalar responses append nothing (pre-v4 bytes).
  if (!response.front.empty()) w.prefixed([&](ByteWriter& f) { write_front(f, response); });
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
  write_list(w, models, write_summary);
  return w.take();
}

Result<std::vector<ModelSummary>> decode_model_list(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  std::vector<ModelSummary> models;
  const ListRead read = read_list(r, kMinSummaryBytes, models, read_summary);
  if (read == ListRead::kBadCount) return Status::error("model list: corrupt count");
  if (read != ListRead::kOk || !r.at_end()) return Status::error("model list: truncated payload");
  return models;
}

// ---------------------------------------------------------------------------
// Node stats
// ---------------------------------------------------------------------------

namespace {

void write_key(ByteWriter& w, const obs::MetricKey& key) {
  w.str(key.name);
  w.u32(static_cast<std::uint32_t>(key.labels.size()));
  for (const auto& [label, value] : key.labels) {
    w.str(label);
    w.str(value);
  }
}

bool read_key(ByteReader& r, obs::MetricKey& key) {
  key.name = r.str();
  const std::uint32_t labels = r.u32();
  // Each label is at least two length prefixes.
  if (!r.ok() || labels > r.remaining() / 16) return false;
  key.labels.reserve(labels);
  for (std::uint32_t i = 0; i < labels && r.ok(); ++i) {
    std::string label = r.str();
    key.labels.emplace_back(std::move(label), r.str());
  }
  return r.ok();
}

/// One snapshot section: a u32 entry count, then (key, value) entries.
template <typename Value, typename WriteValue>
void write_section(ByteWriter& w, const std::map<obs::MetricKey, Value>& entries,
                   WriteValue write_value) {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    write_key(w, key);
    write_value(w, value);
  }
}

/// The count is checked against the bytes left — every entry takes at least
/// a key (name length prefix + label count) and `min_value_bytes` — before
/// it sizes anything; a truncated entry or a repeated key fails the section.
template <typename Value, typename ReadValue>
Status read_section(ByteReader& r, const char* what, std::size_t min_value_bytes,
                    std::map<obs::MetricKey, Value>& entries, ReadValue read_value) {
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining() / (8 + 4 + min_value_bytes)) {
    return Status::error(strf("node stats: corrupt %s count", what));
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::MetricKey key;
    Value value{};
    if (!read_key(r, key) || !read_value(r, value) || !r.ok()) {
      return Status::error(strf("node stats: corrupt %s '%s'", what, key.name.c_str()));
    }
    if (!entries.emplace(key, std::move(value)).second) {
      return Status::error(strf("node stats: duplicate %s '%s'", what, key.name.c_str()));
    }
  }
  return Status::ok();
}

}  // namespace

std::string encode_metrics_snapshot(const obs::MetricsSnapshot& snapshot) {
  ByteWriter w;
  w.u8(1);
  w.u32(kStatsPayloadVersion);
  write_section(w, snapshot.counters, [](ByteWriter& out, std::uint64_t v) { out.u64(v); });
  write_section(w, snapshot.gauges, [](ByteWriter& out, const obs::GaugeSummary& g) {
    out.f64(g.sum);
    out.f64(g.min);
    out.f64(g.max);
  });
  write_section(w, snapshot.histograms, write_histogram);
  return w.take();
}

Result<obs::MetricsSnapshot> decode_metrics_snapshot(std::string_view payload) {
  ByteReader r(payload);
  if (const Status prefix = read_status_prefix(r); !prefix.is_ok()) return prefix;
  const std::uint32_t version = r.u32();
  if (!r.ok() || version != kStatsPayloadVersion) {
    return Status::error(strf("node stats: unsupported stats version %u (expected %u)",
                              version, kStatsPayloadVersion));
  }
  obs::MetricsSnapshot snapshot;
  Status status = read_section(r, "counter", 8, snapshot.counters,
                               [](ByteReader& in, std::uint64_t& v) {
                                 v = in.u64();
                                 return true;
                               });
  if (status.is_ok()) {
    status = read_section(r, "gauge", 24, snapshot.gauges,
                          [](ByteReader& in, obs::GaugeSummary& g) {
                            g.sum = in.f64();
                            g.min = in.f64();
                            g.max = in.f64();
                            return true;
                          });
  }
  // Spec, totals and the bucket count: 8 + 8 + 4 + 8 + 8 + 8 + 8 + 4 bytes.
  if (status.is_ok()) {
    status = read_section(r, "histogram", 56, snapshot.histograms, read_histogram);
  }
  if (!status.is_ok()) return status;
  if (!r.at_end()) return Status::error("node stats: trailing bytes");
  return snapshot;
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
  write_list(w, batch.records, learn::write_provenance_record);
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
  const auto read_record = [version](ByteReader& in, learn::ProvenanceRecord& record) {
    return learn::read_provenance_record(in, record, version);
  };
  switch (read_list(r, learn::kMinRecordBytes, batch.records, read_record)) {
    case ListRead::kBadCount:
      return Status::error("provenance reply: corrupt record count");
    case ListRead::kBadEntry:
      return Status::error("provenance reply: malformed record");
    case ListRead::kOk:
      break;
  }
  if (!r.at_end()) return Status::error("provenance reply: truncated payload");
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

std::string encode_sync_request(const SyncRequest& request) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(request.mode));
  write_list(w, request.keys, write_sync_key);
  // Optional tagged trailer (v5). A request from a node without membership
  // or hybrid push emits zero trailer fields — byte-identical to the v4
  // encoding — which is what the bit-identity tests pin.
  if (!request.rumors.empty()) {
    write_field(w, kSyncTagRumors, [&](ByteWriter& f) { write_member_rumors(f, request.rumors); });
  }
  if (!request.push_inventory.empty()) {
    write_field(w, kSyncTagInventory,
                [&](ByteWriter& f) { write_list(f, request.push_inventory, write_summary); });
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
  // A truncated key leaves the reader failed, and read_fields reports it.
  if (read_list(r, kMinSyncKeyBytes, request.keys, read_sync_key) == ListRead::kBadCount) {
    return Status::error("sync request: corrupt key count");
  }
  const Status fields =
      read_fields(r, "sync request", [&](std::uint8_t tag, std::string_view body) {
        switch (tag) {
          case kSyncTagRumors:
            if (const Status s = decode_member_rumors(body, request.rumors); !s.is_ok()) {
              return Status::error("sync request: " + s.message());
            }
            return Status::ok();
          case kSyncTagInventory:
            if (read_list_field(body, kMinSummaryBytes, request.push_inventory, read_summary)) {
              return Status::ok();
            }
            return Status::error("sync request: corrupt push inventory field");
          default:
            return Status::ok();
        }
      });
  if (!fields.is_ok()) return fields;
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
    write_list(w, o.inventory, write_summary);
  } else {
    write_list(w, o.blobs, [](ByteWriter& out, const std::string& blob) { out.str(blob); });
  }
  // Optional tagged trailer (v5), mirroring the request side: offers from
  // membership-less nodes emit zero new bytes.
  if (!o.rumors.empty()) {
    write_field(w, kSyncTagRumors, [&](ByteWriter& f) { write_member_rumors(f, o.rumors); });
  }
  if (!o.wants.empty()) {
    write_field(w, kSyncTagWants, [&](ByteWriter& f) { write_list(f, o.wants, write_sync_key); });
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
  const auto read_blob = [](ByteReader& in, std::string& blob) {
    blob = in.str();
    return true;
  };
  // Each blob is at least its own length prefix.
  const ListRead read = offer.mode == SyncMode::kInventory
                            ? read_list(r, kMinSummaryBytes, offer.inventory, read_summary)
                            : read_list(r, 8, offer.blobs, read_blob);
  if (read == ListRead::kBadCount) return Status::error("sync offer: corrupt count");
  const Status fields = read_fields(r, "sync offer", [&](std::uint8_t tag, std::string_view body) {
    switch (tag) {
      case kSyncTagRumors:
        if (const Status s = decode_member_rumors(body, offer.rumors); !s.is_ok()) {
          return Status::error("sync offer: " + s.message());
        }
        return Status::ok();
      case kSyncTagWants:
        if (read_list_field(body, kMinSyncKeyBytes, offer.wants, read_sync_key)) {
          return Status::ok();
        }
        return Status::error("sync offer: corrupt wants field");
      default:
        return Status::ok();
    }
  });
  if (!fields.is_ok()) return fields;
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
