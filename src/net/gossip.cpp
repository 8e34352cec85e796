#include "net/gossip.hpp"

#include <algorithm>
#include <unordered_map>

#include "serve/serialization.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace autophase::net {

GossipCore::GossipCore(std::shared_ptr<serve::ModelRegistry> registry, GossipCoreConfig config)
    : registry_(registry != nullptr ? std::move(registry)
                                    : std::make_shared<serve::ModelRegistry>()),
      config_(config) {}

std::vector<ModelSummary> GossipCore::inventory() const {
  std::vector<ModelSummary> models;
  for (const auto& key : registry_->list()) {
    const std::shared_ptr<const serve::PolicyArtifact> artifact =
        registry_->get(key.name, key.version);
    if (artifact == nullptr) continue;  // raced with nothing — list() snapshots
    ModelSummary m;
    m.name = key.name;
    m.version = key.version;
    {
      // Serialize each installed artifact at most once: artifacts are
      // immutable snapshots, so (bytes, checksum) keyed by pointer identity
      // stays valid until an import replaces the version's snapshot.
      const std::lock_guard<std::mutex> lock(inventory_mutex_);
      auto& entry = inventory_cache_[{key.name, key.version}];
      if (entry.artifact != artifact) {
        const std::string blob = serve::serialize_artifact(*artifact);
        entry = {artifact, blob.size(), fnv1a(blob)};
      }
      m.blob_bytes = entry.blob_bytes;
      m.blob_checksum = entry.blob_checksum;
    }
    models.push_back(std::move(m));
  }
  // Canonical order: registry listing is hash-map ordered, but version
  // vectors exchanged between nodes (and recorded in simulator traces) must
  // not depend on bucket layout.
  std::sort(models.begin(), models.end(), [](const ModelSummary& a, const ModelSummary& b) {
    return a.name != b.name ? a.name < b.name : a.version < b.version;
  });
  return models;
}

std::string GossipCore::handle_sync(std::string_view payload) const {
  auto request = decode_sync_request(payload);
  if (!request.is_ok()) {
    return encode_sync_offer(Status::error("sync: " + request.message()));
  }
  // Membership piggyback, server side: absorb the requester's rumors and
  // answer with our own. This runs even on fetch requests — every exchange
  // is a dissemination opportunity.
  SyncOffer offer;
  if (membership_ != nullptr) {
    membership_->apply_all(request.value().rumors);
    offer.rumors = membership_->rumors();
  }
  offer.mode = request.value().mode;
  if (request.value().mode == SyncMode::kInventory) {
    offer.inventory = inventory();
    // Hybrid push, server side: diff the requester's volunteered inventory
    // against ours and answer with what we lack — the requester ships those
    // via kReplicate in the same round. A converged peer wants nothing.
    if (!request.value().push_inventory.empty()) {
      std::unordered_map<std::string, std::uint64_t> local;
      for (const ModelSummary& m : offer.inventory) {
        local.emplace(m.name + "#" + std::to_string(m.version), m.blob_checksum);
      }
      for (const ModelSummary& m : request.value().push_inventory) {
        const auto it = local.find(m.name + "#" + std::to_string(m.version));
        if (it == local.end() || it->second != m.blob_checksum) {
          offer.wants.push_back({m.name, m.version});
        }
      }
    }
  } else {
    // One entry per requested key, in order; a key that vanished (a peer
    // asking about a model this node never had) answers with an empty blob —
    // the requester consumes the slot and moves on, so anti-entropy cannot
    // loop on it. The reply is capped below the frame payload limit: a
    // hand-rolled request for the whole registry gets a truncated offer
    // (the requester re-asks for the unconsumed tail), never an unframeable
    // reply or an unbounded server-side buffer.
    const std::size_t reply_budget =
        config_.max_frame_payload - std::min<std::size_t>(config_.max_frame_payload / 2, 4096);
    std::size_t reply_bytes = 0;
    for (const SyncKey& key : request.value().keys) {
      auto blob = registry_->export_model(key.name, key.version);
      std::string bytes = blob.is_ok() ? std::move(blob).value() : std::string();
      // 16 bytes conservative per-entry framing overhead (8-byte length
      // prefix + slack), so the encoded payload stays under the cap too.
      if (reply_bytes + bytes.size() + 16 > reply_budget) break;
      reply_bytes += bytes.size() + 16;
      offer.blobs.push_back(std::move(bytes));
    }
  }
  return encode_sync_offer(std::move(offer));
}

Result<SyncReport> GossipCore::pull_from(Transport& transport, const RemoteEndpoint& peer) {
  // Pull the peer's version vector, always volunteering our own inventory
  // and membership rumors with the same frame (push/pull hybrid gossip): the
  // peer answers with the keys it lacks and we ship them via kReplicate in
  // the same round. That roughly halves one-way dissemination latency;
  // converged fleets answer with no wants, so the push costs piggyback bytes
  // and never an extra RTT.
  const std::vector<ModelSummary> local_models = inventory();
  Frame query;
  query.type = MsgType::kSyncRequest;
  query.request_id = 1;
  SyncRequest inventory_query;
  inventory_query.mode = SyncMode::kInventory;
  if (membership_ != nullptr) inventory_query.rumors = membership_->rumors();
  inventory_query.push_inventory = local_models;
  query.payload = encode_sync_request(inventory_query);
  auto reply = transport.exchange(peer, query);
  if (!reply.is_ok()) {
    if (membership_ != nullptr) membership_->observe_failure(peer);
    return reply.status();
  }
  if (reply.value().type != MsgType::kSyncOffer) {
    if (membership_ != nullptr) membership_->observe_failure(peer);
    return Status::error("sync: mismatched reply type");
  }
  auto offer = decode_sync_offer(reply.value().payload);
  if (!offer.is_ok()) {
    if (membership_ != nullptr) membership_->observe_failure(peer);
    return Status::error("sync: " + offer.message());
  }
  if (offer.value().mode != SyncMode::kInventory) {
    return Status::error("sync: expected an inventory offer");
  }

  // Diff against the local registry: fetch what is missing, and refetch any
  // version whose bytes diverged (should not happen with deterministic
  // serialization, but anti-entropy converges on the peer's truth rather
  // than assuming it).
  SyncReport report;
  report.peer_models = offer.value().inventory.size();
  if (membership_ != nullptr) {
    // A decoded typed reply is a live peer: clear failure accounting before
    // absorbing its rumors (which may include second-hand suspicion of us —
    // absorbed as a refutation bump).
    membership_->observe_success(peer);
    membership_->apply_all(offer.value().rumors, &report.membership);
  }
  std::unordered_map<std::string, std::uint64_t> local;
  for (const ModelSummary& m : local_models) {
    local.emplace(m.name + "#" + std::to_string(m.version), m.blob_checksum);
  }
  std::vector<std::pair<SyncKey, std::uint64_t>> missing;  // key, advertised bytes
  for (const ModelSummary& m : offer.value().inventory) {
    const auto it = local.find(m.name + "#" + std::to_string(m.version));
    if (it != local.end() && it->second == m.blob_checksum) {
      ++report.already_present;
    } else {
      missing.push_back({{m.name, m.version}, m.blob_bytes});
    }
  }

  // Fetch in chunks bounded by count AND advertised bytes, so one kSyncOffer
  // reply never nears the frame payload cap however large the artifacts are
  // (a single over-budget blob still travels — alone in its chunk).
  const std::size_t chunk_count = std::max<std::size_t>(1, config_.sync_fetch_batch);
  const std::uint64_t chunk_bytes = config_.max_frame_payload / 2;
  for (std::size_t begin = 0; begin < missing.size();) {
    Frame fetch;
    fetch.type = MsgType::kSyncRequest;
    fetch.request_id = 1;
    SyncRequest request;
    std::uint64_t bytes = 0;
    request.mode = SyncMode::kFetch;
    for (std::size_t i = begin; i < missing.size() && request.keys.size() < chunk_count; ++i) {
      if (!request.keys.empty() && bytes + missing[i].second > chunk_bytes) break;
      request.keys.push_back(missing[i].first);
      bytes += missing[i].second;
    }
    fetch.payload = encode_sync_request(request);
    auto fetched = transport.exchange(peer, fetch);
    if (!fetched.is_ok()) {
      if (membership_ != nullptr) membership_->observe_failure(peer);
      return fetched.status();
    }
    auto blobs = decode_sync_offer(fetched.value().payload);
    if (!blobs.is_ok()) return Status::error("sync fetch: " + blobs.message());
    if (blobs.value().mode != SyncMode::kFetch) {
      return Status::error("sync fetch: expected a blob offer");
    }
    // One offer entry per requested key, in order; the peer may truncate to
    // stay under its frame cap, in which case only the consumed prefix
    // advances and the tail is re-requested next chunk. Zero entries for a
    // non-empty request means no pass can ever make progress (a blob larger
    // than the frame cap), so fail loudly instead of reporting a clean sync.
    if (blobs.value().blobs.empty()) {
      return Status::error(strf("sync fetch: peer shipped none of %zu requested blobs "
                                "(artifact larger than the frame payload cap?)",
                                request.keys.size()));
    }
    if (blobs.value().blobs.size() > request.keys.size()) {
      return Status::error("sync fetch: peer offered more blobs than requested");
    }
    for (const std::string& blob : blobs.value().blobs) {
      ++begin;  // this key's slot was answered (possibly "not here")
      if (blob.empty()) continue;  // vanished on the peer; next pass decides
      // import_model re-validates framing + checksum, so a torn or corrupt
      // blob fails here instead of landing in the registry.
      auto key = registry_->import_model(blob);
      if (!key.is_ok()) return Status::error("sync import: " + key.message());
      ++report.fetched;
      report.fetched_bytes += blob.size();
    }
  }

  // Hybrid push: ship what the peer said it wants from our volunteered
  // inventory, as ordinary kReplicate pushes in the same round. Pushes are
  // opportunistic — a failed or rejected push costs nothing but this
  // round's shortcut; the peer's own pull still converges it.
  for (const SyncKey& want : offer.value().wants) {
    auto blob = registry_->export_model(want.name, want.version);
    if (!blob.is_ok()) continue;  // vanished locally since we advertised it
    if (blob.value().size() + 64 > config_.max_frame_payload) continue;  // unframeable
    Frame push;
    push.type = MsgType::kReplicate;
    push.request_id = 1;
    push.payload = blob.value();
    auto ack = transport.exchange(peer, push);
    if (!ack.is_ok()) continue;
    if (!decode_publish_reply(ack.value().payload).is_ok()) continue;
    ++report.pushed;
    report.pushed_bytes += blob.value().size();
  }
  return report;
}

}  // namespace autophase::net
