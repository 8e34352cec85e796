// SWIM-style fleet membership: alive / suspect / dead / left records with
// incarnation numbers, disseminated as piggyback fields on the gossip
// anti-entropy exchange (net/gossip.hpp) so a converged fleet pays zero
// extra round trips for membership.
//
// The table is deliberately *round-based*, not wall-clock-based: suspicion
// and confirmation advance when the owner calls tick_round() (once per
// gossip round / sim sweep). That keeps the protocol deterministic under
// the SimWorld chaos harness — the same seed replays the same membership
// history — and makes timeouts meaningful in both virtual and real time.
//
// Rumor precedence (classic SWIM, plus practical rejoin):
//   * higher incarnation wins, whatever the states;
//   * at equal incarnation, suspect overrides alive (suspicion is news,
//     health is the default) and dead/left override both;
//   * a dead record is absorbing at its incarnation — only a strictly
//     higher-incarnation alive rumor (a restarted node announcing itself)
//     resurrects it, which is how a rejoining node re-enters the fleet;
//   * a rumor declaring *this node* suspect or dead is refuted on sight:
//     the table bumps its own incarnation past the rumor's and re-asserts
//     alive, which cancels the rumor fleet-wide as it spreads.
//
// The table is internally synchronized: on a ServeNode the net worker pool
// (handle_sync absorbing piggybacked rumors) and the gossip thread touch it
// concurrently, and one coarse mutex is plenty for control-plane rates. The
// single-threaded sim harness pays a handful of uncontended locks per sweep.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.hpp"
#include "serve/serialization.hpp"
#include "support/status.hpp"

namespace autophase::net {

enum class MemberState : std::uint8_t {
  kAlive = 0,
  kSuspect = 1,
  kDead = 2,  // confirmed — dropped from routing and peer selection
  kLeft = 3,  // graceful departure; same routing consequences as dead
};

[[nodiscard]] const char* member_state_name(MemberState state);

/// One disseminated membership fact. Equality of endpoint identity is
/// "host:port"; the incarnation makes conflicting facts orderable.
struct MemberRumor {
  RemoteEndpoint endpoint;
  std::uint64_t incarnation = 0;
  MemberState state = MemberState::kAlive;
};

struct MembershipConfig {
  /// Consecutive failed direct exchanges before this node locally suspects
  /// a peer (failures are normal chaos; one drop is not a death).
  std::uint32_t suspect_after_failures = 2;
  /// Rounds a suspicion stands un-refuted before it is confirmed dead.
  std::uint32_t confirm_after_rounds = 3;
};

/// What applying a batch of rumors changed — the caller uses this to drive
/// side effects (ring eviction, logs) without diffing the whole table.
struct MembershipDelta {
  std::vector<RemoteEndpoint> newly_dead;
  std::vector<RemoteEndpoint> newly_alive;  // joins + resurrections
  bool refuted_self = false;  // a rumor called us suspect/dead; we bumped
};

class MembershipTable {
 public:
  MembershipTable(RemoteEndpoint self, MembershipConfig config = {});

  [[nodiscard]] const RemoteEndpoint& self() const noexcept { return self_; }
  [[nodiscard]] std::uint64_t self_incarnation() const;

  /// Seeds a peer as alive at incarnation 0 (static config / join).
  void add_peer(const RemoteEndpoint& peer);

  /// Merges one rumor per the precedence rules above.
  void apply(const MemberRumor& rumor, MembershipDelta* delta = nullptr);
  void apply_all(const std::vector<MemberRumor>& rumors, MembershipDelta* delta = nullptr);

  /// Every record (self included) — the piggyback payload. Deterministic
  /// order (by host:port), so encodings are replay-stable.
  [[nodiscard]] std::vector<MemberRumor> rumors() const;

  /// Direct-exchange ground truth. A success clears failure accounting and
  /// un-suspects locally; failures escalate to suspicion past the
  /// configured threshold.
  void observe_success(const RemoteEndpoint& peer);
  void observe_failure(const RemoteEndpoint& peer);

  /// Advances the round clock: suspicions held longer than
  /// confirm_after_rounds become confirmed-dead. Returns the endpoints
  /// confirmed dead *this* round so the caller can evict them from rings.
  std::vector<RemoteEndpoint> tick_round();

  /// Gossip-eligible peers: alive or suspect (we still probe suspects —
  /// that is how they get refuted), never self, never dead/left.
  [[nodiscard]] std::vector<RemoteEndpoint> eligible_peers() const;

  [[nodiscard]] MemberState state_of(const RemoteEndpoint& peer) const;
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] std::size_t suspect_count() const;
  [[nodiscard]] std::size_t dead_count() const;

  /// Graceful departure: self becomes kLeft at a bumped incarnation, so the
  /// rumor outranks any concurrent alive fact.
  void leave();

  /// Canonical "host:port state@incarnation" lines — what the churn suite
  /// compares across nodes for membership convergence. Local-only fields
  /// (failure counters, suspicion rounds) are deliberately excluded.
  [[nodiscard]] std::string digest() const;

 private:
  struct Record {
    MemberRumor fact;
    std::uint32_t consecutive_failures = 0;
    std::uint64_t suspected_at_round = 0;  // valid while fact.state == kSuspect
  };

  static std::string key_of(const RemoteEndpoint& endpoint);
  void apply_locked(const MemberRumor& rumor, MembershipDelta* delta);
  void suspect_locally(Record& record);

  RemoteEndpoint self_;
  MembershipConfig config_;
  mutable std::mutex mutex_;
  std::uint64_t round_ = 0;
  std::map<std::string, Record> records_;  // ordered => deterministic rumors()
};

/// Piggyback codec, a serve::write_list list: `u64 count`, then per rumor
/// `str host, u32 port, u8 state, u64 incarnation`. Hostile counts are
/// bounded against the remaining bytes before any allocation.
void write_member_rumors(serve::ByteWriter& w, const std::vector<MemberRumor>& rumors);
[[nodiscard]] std::string encode_member_rumors(const std::vector<MemberRumor>& rumors);
[[nodiscard]] Status decode_member_rumors(std::string_view bytes, std::vector<MemberRumor>& out);

}  // namespace autophase::net
