// Wire framing for the serving protocol: every message is one frame —
//
//   +-------+---------+------+------------+-------------+---------+----------+
//   | magic | version | type | request id | payload len | payload | checksum |
//   | u32   | u32     | u8   | u64        | u64         | bytes   | u64      |
//   +-------+---------+------+------------+-------------+---------+----------+
//
// little-endian throughout, FNV-1a over the payload (the same checksum
// discipline as the artifact format in serve/serialization). The request id
// lets clients pipeline: responses echo the id of the request they answer,
// so they may arrive in any order. Readers enforce a payload cap before
// allocating — an oversize or corrupt length prefix is a clean protocol
// error, never a giant allocation.
#pragma once

#include <cstdint>
#include <string>

#include "net/socket.hpp"
#include "support/status.hpp"

namespace autophase::net {

inline constexpr std::uint32_t kWireMagic = 0x50575041;  // "APWP" little-endian
/// Bumped whenever the frame header or a payload layout without its own
/// version changes (kStats has kStatsPayloadVersion); peers reject newer.
///
/// v2  kStats payload became versioned and grew the latency reservoir +
///     per-model-version / per-objective breakdowns; kSyncRequest/kSyncOffer
///     (replication catch-up) were added.
/// v3  kProvenance (drain served-request provenance for online learning) and
///     kCanary (shadow-traffic split control + promotion decisions) were
///     added; the kStats payload grew online-learning counters; a well-framed
///     frame of unknown type now yields kUnknownType from the parser (an
///     answerable protocol error) instead of killing the connection.
/// v4  multi-objective Pareto serving: the kCompile request payload grew an
///     optional objective-weights trailer field and the response an optional
///     Pareto-front field (both tagged, length-prefixed, skipped by peers
///     that do not know them); provenance records carry the weight vector
///     (record v2). Weightless requests/responses encode zero new bytes —
///     bit-identical to v3 — which is why this bump is compatible in both
///     directions for scalar traffic.
/// v5  fleet elasticity: kOverloaded (typed shed reply echoing the request
///     id so clients back off instead of blind-retrying) was added;
///     kSyncRequest/kSyncOffer grew tagged trailer fields carrying SWIM
///     membership rumors and the push half of push/pull hybrid gossip
///     (requester inventory / responder wants); the kCompile request grew an
///     optional deadline trailer field; the kStats payload (v6) grew shed +
///     membership counters. Requests from nodes with membership disabled
///     encode zero new bytes — bit-identical to v4 payloads.
inline constexpr std::uint32_t kWireVersion = 5;
inline constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 1 + 8 + 8;
inline constexpr std::size_t kDefaultMaxPayload = 64u << 20;

enum class MsgType : std::uint8_t {
  kPing = 1,
  kCompile = 2,      // CompileRequest -> CompileResponse
  kPublish = 3,      // named artifact -> assigned version (+ peer replication)
  kReplicate = 4,    // versioned artifact push between nodes
  kListModels = 5,   // -> (name, version, bytes, checksum) per model
  kStats = 6,        // -> node serving/eval counters (versioned payload)
  kSyncRequest = 7,  // anti-entropy pull: inventory query / blob fetch
  kSyncOffer = 8,    // reply to kSyncRequest: version vector or blobs
  kMetrics = 9,      // -> Prometheus-style text exposition of the node
  kProvenance = 10,  // drain served-request provenance records (online learning)
  kCanary = 11,      // shadow-traffic split control / promotion decisions
  kOverloaded = 12,  // typed shed reply: queue saturated, back off and retry
  kError = 15,       // server could not even frame a typed reply
};

[[nodiscard]] bool msg_type_known(std::uint8_t raw) noexcept;

struct Frame {
  MsgType type = MsgType::kPing;
  std::uint64_t request_id = 0;
  std::string payload;
};

[[nodiscard]] std::string encode_frame(const Frame& frame);

enum class FrameParse { kNeedMore, kFrame, kError, kUnknownType };

/// Incremental parse for the server's non-blocking reads: consumes one
/// complete frame from the front of `buffer` when available. kError means
/// the byte stream is unrecoverable (bad magic/version/checksum or oversize
/// length) and the connection should be dropped after the error reply.
/// kUnknownType means a complete, checksum-valid frame carried a message
/// type this peer does not speak (e.g. a newer client's verb): the frame is
/// consumed and out.request_id identifies it, so the server can answer with
/// a typed kError and keep the connection — old peers must degrade to a
/// clean per-request error, never a wedged or dropped stream.
FrameParse try_parse_frame(std::string& buffer, Frame& out, std::string& error,
                           std::size_t max_payload = kDefaultMaxPayload);

/// Blocking (deadline-bounded) client-side frame IO.
Status write_frame(TcpStream& stream, const Frame& frame, Deadline deadline);
Result<Frame> read_frame(TcpStream& stream, Deadline deadline,
                         std::size_t max_payload = kDefaultMaxPayload);

}  // namespace autophase::net
