// Deterministic in-process network simulator for the gossip/anti-entropy
// protocol. A SimWorld owns a virtual clock, a seeded RNG, and a set of
// virtual nodes (frame handlers); SimWorld::transport() hands out a
// net::Transport whose exchange() routes the *real wire bytes* — every frame
// is encoded with encode_frame and re-parsed with try_parse_frame at the
// receiver — through a fault injector that can, per seed and probability:
//
//   drop        lose the request or the reply (caller sees a timeout)
//   duplicate   deliver the request twice (imports must be idempotent)
//   delay       hold the request back and re-deliver it stale before the
//               next message on that link (genuine reordering: old frames
//               arrive after newer ones were already processed)
//   truncate    tear the frame mid-flight (receiver must reject cleanly)
//   corrupt     flip one bit (framing checksum must catch it)
//   partition   sever whole groups of nodes until heal()
//   kill        crash one node: every exchange to or from it times out
//               until restart() (the membership-churn primitive)
//
// Everything is driven by one RNG in a fixed draw order and stamped into a
// textual event trace, so the same seed replays the same scenario byte for
// byte — the chaos suite asserts convergence AND replayability. The world is
// deliberately single-threaded: determinism is the point. Use real TCP
// (TcpTransport + ServeNode) for concurrency coverage.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace autophase::net {

struct SimFaultConfig {
  double drop = 0.0;       // per-direction message loss probability
  double duplicate = 0.0;  // request delivered twice to the handler
  double delay = 0.0;      // request held back, re-delivered stale (reorder)
  double truncate = 0.0;   // frame cut short mid-flight
  double corrupt = 0.0;    // one bit flipped mid-flight
};

struct SimCounters {
  std::uint64_t exchanges = 0;
  std::uint64_t delivered = 0;    // requests that reached a handler intact
  std::uint64_t replies = 0;      // replies that returned intact
  std::uint64_t dropped = 0;      // either direction
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;      // requests held for stale re-delivery
  std::uint64_t stale = 0;        // stale re-deliveries that arrived
  std::uint64_t torn = 0;         // truncated/corrupted frames rejected
  std::uint64_t partitioned = 0;  // exchanges refused by an active partition
  std::uint64_t node_down = 0;    // exchanges refused because an end was down
  std::uint64_t wire_bytes = 0;   // bytes that traveled (either direction)
};

class SimWorld {
 public:
  /// Answers one request frame with one reply frame — the server half of a
  /// virtual node (kSyncRequest -> kSyncOffer, kReplicate -> ack, ...).
  using Handler = std::function<Frame(const Frame&)>;

  explicit SimWorld(std::uint64_t seed, SimFaultConfig faults = {});

  /// Registers a virtual node; returns its endpoint (host "sim", ports are
  /// assigned 1, 2, 3, ... in registration order).
  RemoteEndpoint add_node(Handler handler);

  /// A Transport for the node at `self`, exchanging through the injector.
  [[nodiscard]] std::unique_ptr<Transport> transport(const RemoteEndpoint& self);

  /// Severs the fleet into groups (listed by port): nodes in different
  /// groups — or not listed at all — cannot exchange until heal().
  void partition(const std::vector<std::vector<std::uint16_t>>& groups);
  void heal();

  /// Crashes the node at `port`: its handler stops answering and every
  /// exchange to or from it burns the exchange timeout until restart().
  /// Unlike a partition (link fault, symmetric groups), a kill is a *node*
  /// fault — exactly what SWIM suspicion must confirm.
  void kill(std::uint16_t port);
  void restart(std::uint16_t port);
  [[nodiscard]] bool node_down(std::uint16_t port) const;

  /// Swaps the handler behind `port` in place (same endpoint identity) —
  /// the "replace the box, keep the address" churn case. Frames held on
  /// links into `port` survive the swap and arrive stale at the new node.
  void replace_handler(std::uint16_t port, Handler handler);

  [[nodiscard]] std::uint64_t now_us() const noexcept { return now_us_; }
  [[nodiscard]] const SimCounters& counters() const noexcept { return counters_; }
  /// One line per simulated event, timestamped in virtual time with payload
  /// checksums — byte-identical across runs with the same seed and scenario.
  [[nodiscard]] const std::string& trace() const noexcept { return trace_; }
  /// The same events, structured: one obs::InstantEvent per note, stamped in
  /// virtual microseconds. Feed to obs::chrome_trace_json (or chrome_trace()
  /// below) to view a chaos run in Perfetto next to production spans.
  [[nodiscard]] const std::vector<obs::InstantEvent>& events() const noexcept {
    return events_;
  }
  /// Chrome trace-event JSON of the full event timeline (no spans).
  [[nodiscard]] std::string chrome_trace() const;

  /// The world's RNG stream — schedulers built on the world (gossip round
  /// order, peer choice) should draw from it so one seed fixes everything.
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  friend class SimTransport;

  Result<Frame> exchange(std::uint16_t src, const RemoteEndpoint& peer, const Frame& request);
  /// Applies in-flight byte faults to one leg; nullopt when the frame was
  /// torn (receiver rejected it) — `bytes` arrives encoded, leaves mutated.
  bool transmit_intact(std::string& bytes, Frame& out, const char* leg);
  [[nodiscard]] bool severed(std::uint16_t a, std::uint16_t b) const;
  void advance_latency();
  void note(const std::string& line);

  Rng rng_;
  SimFaultConfig faults_;
  std::uint64_t now_us_ = 0;
  std::vector<Handler> handlers_;  // index = port - 1
  std::unordered_map<std::uint16_t, int> partition_group_;
  bool partitioned_ = false;
  std::set<std::uint16_t> down_;  // killed nodes (ports), until restart()
  /// Held-back request bytes per (src, dst) link, re-delivered stale before
  /// the next exchange crossing that link.
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::vector<std::string>> held_;
  SimCounters counters_;
  std::string trace_;
  std::vector<obs::InstantEvent> events_;
};

/// The Transport SimWorld::transport() returns; separate type so tests can
/// also construct one directly against a world.
class SimTransport final : public Transport {
 public:
  SimTransport(SimWorld& world, std::uint16_t self) : world_(world), self_(self) {}

  Result<Frame> exchange(const RemoteEndpoint& peer, const Frame& request) override {
    return world_.exchange(self_, peer, request);
  }

 private:
  SimWorld& world_;
  std::uint16_t self_;
};

}  // namespace autophase::net
