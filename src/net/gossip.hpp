// GossipCore: the transport-agnostic half of registry replication. One core
// wraps one ModelRegistry and implements both sides of the anti-entropy
// protocol — serving kSyncRequest (inventory / blob fetch) and driving a
// pull against a peer over any net::Transport. ServeNode delegates here for
// real TCP fleets; the deterministic simulator (sim_transport.hpp) runs the
// very same code over injected faults, which is what makes the chaos suite
// a test of the production protocol rather than a model of it.
//
// Epidemic convergence: every node periodically pulls from one random peer
// (ServeNode's background loop, or the simulator's scheduler). A publish
// anywhere reaches everyone in O(log N) expected rounds without the owner
// enumerating the fleet, and late joiners converge with no operator action.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "net/wire.hpp"
#include "serve/model_registry.hpp"
#include "support/status.hpp"

namespace autophase::net {

/// What one anti-entropy pull accomplished.
struct SyncReport {
  std::size_t peer_models = 0;      // entries in the peer's version vector
  std::size_t already_present = 0;  // identical (name, version, checksum)
  std::size_t fetched = 0;          // blobs pulled and imported
  std::uint64_t fetched_bytes = 0;
  /// Hybrid push (v5): blobs this node shipped because the peer answered
  /// its pushed inventory with a wants list.
  std::size_t pushed = 0;
  std::uint64_t pushed_bytes = 0;
  /// What the peer's piggybacked membership rumors changed locally (empty
  /// when neither side runs membership).
  MembershipDelta membership;
};

struct GossipCoreConfig {
  std::size_t max_frame_payload = kDefaultMaxPayload;
  /// Blobs requested per kSyncRequest fetch. Chunks are additionally split
  /// by advertised blob bytes so one kSyncOffer reply stays far below the
  /// frame payload cap even for huge artifacts.
  std::size_t sync_fetch_batch = 4;
};

class GossipCore {
 public:
  explicit GossipCore(std::shared_ptr<serve::ModelRegistry> registry,
                      GossipCoreConfig config = {});

  GossipCore(const GossipCore&) = delete;
  GossipCore& operator=(const GossipCore&) = delete;

  /// (name, version, bytes, checksum) snapshot of the local registry, sorted
  /// by (name, version) so offers are canonical across nodes. Blob bytes and
  /// checksums come from a snapshot-identity-keyed cache — an unchanged
  /// artifact is serialized at most once however often it is advertised.
  [[nodiscard]] std::vector<ModelSummary> inventory() const;

  /// Server side: answers one kSyncRequest payload with a kSyncOffer payload
  /// (inventory or blob fetch, reply capped under the frame payload limit).
  [[nodiscard]] std::string handle_sync(std::string_view payload) const;

  /// Client side: one anti-entropy pull against `peer` — fetch the peer's
  /// version vector, diff, fetch every (name, version) this node lacks or
  /// holds with a different checksum, import the blobs. Idempotent: a second
  /// pull against an unchanged peer fetches nothing. Imports re-validate
  /// framing + checksum, so a torn or corrupt blob fails loudly instead of
  /// landing in the registry.
  Result<SyncReport> pull_from(Transport& transport, const RemoteEndpoint& peer);

  /// Attaches a SWIM membership table (net/membership.hpp, internally
  /// synchronized; not owned — must outlive the core). Once attached, every
  /// pull and every served sync piggybacks rumors both ways and records
  /// direct success/failure observations against the peer. Detached (the
  /// default) the core encodes zero membership bytes — bit-identical to the
  /// v4 exchange.
  void set_membership(MembershipTable* membership) noexcept { membership_ = membership; }
  [[nodiscard]] MembershipTable* membership() const noexcept { return membership_; }

  [[nodiscard]] const std::shared_ptr<serve::ModelRegistry>& registry() const noexcept {
    return registry_;
  }

 private:
  std::shared_ptr<serve::ModelRegistry> registry_;
  GossipCoreConfig config_;
  MembershipTable* membership_ = nullptr;

  /// (bytes, checksum) per installed artifact. Entries are validated against
  /// the artifact snapshot they summarize: a version overwritten by an import
  /// gets a fresh snapshot and is re-summarized on the next lookup. The
  /// shared_ptr is held (not a raw pointer) so a replaced artifact's address
  /// can never be recycled into a false identity match.
  struct InventoryEntry {
    std::shared_ptr<const serve::PolicyArtifact> artifact;
    std::uint64_t blob_bytes = 0;
    std::uint64_t blob_checksum = 0;
  };
  mutable std::mutex inventory_mutex_;
  mutable std::map<std::pair<std::string, std::uint32_t>, InventoryEntry> inventory_cache_;
};

}  // namespace autophase::net
