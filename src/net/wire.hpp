// Payload codecs for the serving wire protocol (net/frame.hpp carries the
// bytes; this is what the bytes mean). Every reply payload starts with a
// status byte + error string, so transport errors and application errors stay
// distinguishable. Compile responses are canonical: the same CompileResponse
// always encodes to the same bytes, which is what lets tests assert that a
// remote answer is byte-identical to compile_sync on the owning node.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "learn/provenance.hpp"
#include "net/membership.hpp"
#include "obs/metrics.hpp"
#include "serve/compile_service.hpp"
#include "support/status.hpp"

namespace autophase::net {

// ---- Compile ----

/// Tag of the optional trace-context trailer field on a compile-request
/// payload. The trailer is a sequence of (u8 tag, length-prefixed bytes)
/// fields after the fixed v2 body: an untraced request encodes zero trailer
/// fields — bit-identical to the pre-trace wire bytes — and decoders skip
/// tags they do not know, so old and new peers interoperate in both
/// directions (an old peer simply serves the request untraced).
inline constexpr std::uint8_t kCompileTagTrace = 1;

/// Tag of the optional canary marker on a compile-*response* payload (same
/// tagged-trailer discipline: emitted only when the request was served by a
/// shadow-canary split, so shadow-off responses stay byte-identical to the
/// pre-canary encoding and old peers decode them unchanged).
inline constexpr std::uint8_t kCompileTagCanary = 2;

/// Tag of the optional objective-weights field on a compile-request payload
/// (wire v4): 3 x f64 weight bit patterns + u32 front width. Emitted only
/// when the weight vector is active, so scalar requests stay byte-identical
/// to the v3 encoding; an old peer skips the tag and serves the request
/// scalar — multi-objective serving degrades, it never errors.
inline constexpr std::uint8_t kCompileTagWeights = 3;

/// Tag of the optional Pareto-front field on a compile-response payload
/// (wire v4): hypervolume + the nondominated point set in canonical
/// sort_front order. Emitted only when the front is non-empty (i.e. the
/// request carried active weights), so scalar responses stay byte-identical
/// to the v3 encoding.
inline constexpr std::uint8_t kCompileTagFront = 4;

/// Tag of the optional deadline field on a compile-request payload (wire
/// v5): u64 relative deadline in milliseconds from receipt. Emitted only
/// when the request carries a deadline (0 = none), so deadline-less traffic
/// stays byte-identical to the v4 encoding; the server uses it for
/// deadline-aware batching and sheds queue entries that can no longer make
/// their deadline instead of burning a worker on a dead answer.
inline constexpr std::uint8_t kCompileTagDeadline = 5;

std::string encode_compile_request(const serve::CompileRequest& request);

/// The decoded module owns the IR the embedded request points at; keep it
/// alive for as long as the request is in flight.
struct DecodedCompileRequest {
  std::unique_ptr<ir::Module> module;
  serve::CompileRequest request;
};
Result<DecodedCompileRequest> decode_compile_request(std::string_view payload);

std::string encode_compile_response(const Result<serve::CompileResponse>& response);
Result<serve::CompileResponse> decode_compile_response(std::string_view payload);

/// Deterministic bytes of a successful response — provenance + optimized
/// module (+ the Pareto front when present), with transport timings
/// (queue/serve nanos) excluded. Two nodes serving the same model version
/// must produce identical identity bytes; a scalar response's identity bytes
/// are unchanged from the pre-Pareto wire.
std::string response_identity_bytes(const serve::CompileResponse& response);

// ---- Publish / replicate ----

std::string encode_publish_request(std::string_view name, std::string_view artifact_blob);
struct PublishRequest {
  std::string name;
  std::string artifact_blob;
};
Result<PublishRequest> decode_publish_request(std::string_view payload);

struct PublishReply {
  std::string name;
  std::uint32_t version = 0;
  std::uint32_t peer_failures = 0;  // peers that did not ack the replication
};
std::string encode_publish_reply(const Result<PublishReply>& reply);
Result<PublishReply> decode_publish_reply(std::string_view payload);

// kReplicate's payload is the raw artifact blob itself (name + version are
// embedded); its reply reuses the publish reply codec.

// ---- Model listing ----

struct ModelSummary {
  std::string name;
  std::uint32_t version = 0;
  std::uint64_t blob_bytes = 0;
  /// FNV-1a of the exported blob: equal checksums across nodes mean the
  /// registries converged on bit-identical artifacts.
  std::uint64_t blob_checksum = 0;
};
std::string encode_model_list(const std::vector<ModelSummary>& models);
Result<std::vector<ModelSummary>> decode_model_list(std::string_view payload);

// ---- Node stats ----

/// Bumped whenever the kStats payload layout changes; the payload leads
/// with this so a fleet monitor fails a mismatched node loudly instead of
/// misparsing it. v2-v6 were fixed field lists (see docs/wire-protocol.md);
/// v7 is the node's whole registry snapshot, so a new instrument needs no bump.
inline constexpr std::uint32_t kStatsPayloadVersion = 7;

/// FleetStats::last_sync_age_ms_max value meaning "some node has never
/// completed a pull" (nodes expose that as gossip_last_sync_age_ms = -1).
inline constexpr std::uint64_t kNeverSynced = ~0ull;

/// The kStats reply: status prefix, payload version, registry snapshot. The
/// decoder bounds every count by the bytes left before it allocates and
/// rejects duplicate keys and histograms not in the shared HistogramSpec{}.
std::string encode_metrics_snapshot(const obs::MetricsSnapshot& snapshot);
Result<obs::MetricsSnapshot> decode_metrics_snapshot(std::string_view payload);

// ---- Replication catch-up (anti-entropy) ----

/// kSyncRequest comes in two modes: an inventory query ("what do you
/// have?") answered with the registry's version vector, and a fetch
/// ("ship me these") answered with the serialized artifact blobs. The
/// late-joining node drives both from sync_from(): pull the vector, diff it
/// against its own registry, fetch what is missing. Blobs are exported as
/// immutable registry snapshots, so a publish racing the sync can never
/// produce a torn blob; imports are idempotent at the embedded version.
enum class SyncMode : std::uint8_t {
  kInventory = 0,
  kFetch = 1,
};

struct SyncKey {
  std::string name;
  std::uint32_t version = 0;
};

/// Tagged trailer fields (wire v5) on sync payloads — same optional-trailer
/// discipline as compile payloads: zero fields when the features are off
/// (bit-identical to the v4 encoding), unknown tags skipped, a known tag
/// with a corrupt body a hard error, tag values never reused.
///
/// kSyncTagRumors rides both directions and carries SWIM membership rumors
/// (encode_member_rumors), which is how membership disseminates with no
/// extra round trips. kSyncTagInventory on the *request* is the push half
/// of push/pull hybrid gossip: the requester volunteers its own inventory
/// with the pull, and the responder answers with kSyncTagWants — the keys
/// it is missing — which the requester then ships via ordinary kReplicate
/// pushes in the same round. A converged fleet answers with no wants, so
/// hybrid gossip costs bytes, never an extra RTT.
inline constexpr std::uint8_t kSyncTagRumors = 1;
inline constexpr std::uint8_t kSyncTagInventory = 2;
inline constexpr std::uint8_t kSyncTagWants = 3;

struct SyncRequest {
  SyncMode mode = SyncMode::kInventory;
  std::vector<SyncKey> keys;  // fetch mode: which blobs to ship
  /// Optional piggyback (v5): the requester's membership rumors and — in
  /// inventory mode — its own model inventory (the push half). Both encode
  /// zero bytes when empty.
  std::vector<MemberRumor> rumors;
  std::vector<ModelSummary> push_inventory;
};
std::string encode_sync_request(const SyncRequest& request);
Result<SyncRequest> decode_sync_request(std::string_view payload);

struct SyncOffer {
  SyncMode mode = SyncMode::kInventory;
  std::vector<ModelSummary> inventory;  // kInventory
  /// kFetch: one entry per requested key, in request order. An empty string
  /// means the peer does not have that key (vanished; skip it). Fewer
  /// entries than requested keys means the reply was truncated to fit the
  /// frame payload cap — re-request the unconsumed tail.
  std::vector<std::string> blobs;
  /// Optional piggyback (v5): the responder's membership rumors, and the
  /// keys it wants from the requester's pushed inventory (hybrid push).
  std::vector<MemberRumor> rumors;
  std::vector<SyncKey> wants;
};
std::string encode_sync_offer(const Result<SyncOffer>& offer);
Result<SyncOffer> decode_sync_offer(std::string_view payload);

// ---- Provenance drain (online learning) ----

/// kProvenance pulls served-request provenance off a node, FIFO and
/// destructive: drained records leave the node's bounded log, so each record
/// reaches exactly one collector. `max_records` bounds the reply; `remaining`
/// and `dropped` tell the collector whether to come back sooner.
struct ProvenanceDrainRequest {
  std::uint64_t max_records = 256;
};
std::string encode_provenance_request(const ProvenanceDrainRequest& request);
Result<ProvenanceDrainRequest> decode_provenance_request(std::string_view payload);

struct ProvenanceBatch {
  std::vector<learn::ProvenanceRecord> records;
  std::uint64_t remaining = 0;  // records still queued on the node
  std::uint64_t dropped = 0;    // lifetime records lost to the bounded log
};
std::string encode_provenance_reply(const Result<ProvenanceBatch>& reply);
Result<ProvenanceBatch> decode_provenance_reply(std::string_view payload);

// ---- Canary control (online learning) ----

/// kCanary drives one node's shadow-traffic split. kStart installs a split
/// on `model`; the rest clear it — kPromoted/kRolledBack additionally count
/// the decision in the node's metrics (learn_promoted / learn_rolled_back),
/// which is how promotion decisions become visible in kMetrics scrapes and
/// FleetMonitor. Promotion itself is *not* a special verb: the Promoter
/// republishes the canary weights under the base name, and the ordinary
/// replication/gossip machinery makes them the fleet-wide default.
enum class CanaryAction : std::uint8_t {
  kStart = 0,
  kStop = 1,
  kPromoted = 2,
  kRolledBack = 3,
};

struct CanaryControl {
  CanaryAction action = CanaryAction::kStart;
  std::string model;         // base (serving) model the split applies to
  std::string canary_model;  // kStart: artifact name to shadow-serve
  std::uint32_t canary_version = 0;  // kStart: 0 = canary model's latest
  double fraction = 0.0;             // kStart: [0, 1] share of traffic
};
std::string encode_canary_control(const CanaryControl& control);
Result<CanaryControl> decode_canary_control(std::string_view payload);
// The kCanary reply is a bare status (encode_status_reply).

// ---- Metrics scrape ----

/// kMetrics has an empty request payload; the reply is the node's full
/// Prometheus-style text exposition (MetricsRegistry::render_text) behind
/// the shared status prefix.
std::string encode_metrics_reply(const Result<std::string>& text);
Result<std::string> decode_metrics_reply(std::string_view payload);

// ---- Shared status prefix ----

/// Replies whose only content is success/failure (and error text).
std::string encode_status_reply(const Status& status);
Status decode_status_reply(std::string_view payload);

}  // namespace autophase::net
