#include "net/membership.hpp"

#include <algorithm>
#include <utility>

namespace autophase::net {

using serve::ByteReader;
using serve::ByteWriter;

const char* member_state_name(MemberState state) {
  switch (state) {
    case MemberState::kAlive:
      return "alive";
    case MemberState::kSuspect:
      return "suspect";
    case MemberState::kDead:
      return "dead";
    case MemberState::kLeft:
      return "left";
  }
  return "unknown";
}

namespace {

bool is_terminal(MemberState state) {
  return state == MemberState::kDead || state == MemberState::kLeft;
}

/// State precedence at *equal* incarnation: dead/left absorb, suspect beats
/// alive (suspicion is news; alive is the default everyone already holds).
int state_rank(MemberState state) {
  switch (state) {
    case MemberState::kAlive:
      return 0;
    case MemberState::kSuspect:
      return 1;
    case MemberState::kDead:
    case MemberState::kLeft:
      return 2;
  }
  return 0;
}

/// Does `incoming` override the locally-held `held`?
bool overrides(const MemberRumor& incoming, const MemberRumor& held) {
  if (is_terminal(held.state)) {
    // Dead/left are absorbing at their incarnation: only a strictly newer
    // self-announcement (a restarted node) resurrects the record.
    return incoming.incarnation > held.incarnation;
  }
  if (incoming.incarnation != held.incarnation) {
    return incoming.incarnation > held.incarnation;
  }
  return state_rank(incoming.state) > state_rank(held.state);
}

}  // namespace

MembershipTable::MembershipTable(RemoteEndpoint self, MembershipConfig config)
    : self_(std::move(self)), config_(config) {
  if (config_.suspect_after_failures == 0) config_.suspect_after_failures = 1;
  if (config_.confirm_after_rounds == 0) config_.confirm_after_rounds = 1;
  Record record;
  record.fact.endpoint = self_;
  record.fact.incarnation = 0;
  record.fact.state = MemberState::kAlive;
  records_.emplace(key_of(self_), std::move(record));
}

std::string MembershipTable::key_of(const RemoteEndpoint& endpoint) {
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

std::uint64_t MembershipTable::self_incarnation() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key_of(self_));
  return it == records_.end() ? 0 : it->second.fact.incarnation;
}

void MembershipTable::add_peer(const RemoteEndpoint& peer) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string key = key_of(peer);
  if (records_.count(key) > 0) return;
  Record record;
  record.fact.endpoint = peer;
  record.fact.incarnation = 0;
  record.fact.state = MemberState::kAlive;
  records_.emplace(key, std::move(record));
}

void MembershipTable::apply(const MemberRumor& rumor, MembershipDelta* delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  apply_locked(rumor, delta);
}

void MembershipTable::apply_locked(const MemberRumor& rumor, MembershipDelta* delta) {
  const std::string key = key_of(rumor.endpoint);
  if (key == key_of(self_)) {
    // Refutation: a rumor that calls us suspect or dead is, by construction,
    // wrong — we are here applying it. Bump past it and re-assert alive; the
    // bumped incarnation cancels the rumor wherever it has spread.
    Record& self_record = records_.at(key);
    if (rumor.state != MemberState::kAlive &&
        rumor.incarnation >= self_record.fact.incarnation) {
      self_record.fact.incarnation = rumor.incarnation + 1;
      self_record.fact.state = MemberState::kAlive;
      if (delta != nullptr) delta->refuted_self = true;
    } else if (rumor.state == MemberState::kAlive &&
               rumor.incarnation > self_record.fact.incarnation) {
      self_record.fact.incarnation = rumor.incarnation;
    }
    return;
  }

  auto it = records_.find(key);
  if (it == records_.end()) {
    Record record;
    record.fact = rumor;
    if (rumor.state == MemberState::kSuspect) record.suspected_at_round = round_;
    records_.emplace(key, std::move(record));
    if (delta != nullptr) {
      if (is_terminal(rumor.state)) {
        delta->newly_dead.push_back(rumor.endpoint);
      } else {
        delta->newly_alive.push_back(rumor.endpoint);
      }
    }
    return;
  }

  Record& record = it->second;
  if (!overrides(rumor, record.fact)) return;
  const bool was_terminal = is_terminal(record.fact.state);
  const bool was_suspect = record.fact.state == MemberState::kSuspect;
  record.fact = rumor;
  if (rumor.state == MemberState::kSuspect && !was_suspect) {
    record.suspected_at_round = round_;
  }
  if (rumor.state == MemberState::kAlive) record.consecutive_failures = 0;
  if (delta != nullptr) {
    if (is_terminal(rumor.state) && !was_terminal) {
      delta->newly_dead.push_back(rumor.endpoint);
    } else if (!is_terminal(rumor.state) && was_terminal) {
      delta->newly_alive.push_back(rumor.endpoint);
    }
  }
}

void MembershipTable::apply_all(const std::vector<MemberRumor>& rumors,
                                MembershipDelta* delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const MemberRumor& rumor : rumors) apply_locked(rumor, delta);
}

std::vector<MemberRumor> MembershipTable::rumors() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MemberRumor> out;
  out.reserve(records_.size());
  for (const auto& [key, record] : records_) out.push_back(record.fact);
  return out;
}

void MembershipTable::suspect_locally(Record& record) {
  if (record.fact.state != MemberState::kAlive) return;
  record.fact.state = MemberState::kSuspect;
  record.suspected_at_round = round_;
}

void MembershipTable::observe_success(const RemoteEndpoint& peer) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(key_of(peer));
  if (it == records_.end()) {
    Record record;
    record.fact.endpoint = peer;
    record.fact.state = MemberState::kAlive;
    records_.emplace(key_of(peer), std::move(record));
    return;
  }
  Record& record = it->second;
  record.consecutive_failures = 0;
  // A direct answer is ground truth: locally un-suspect (the fleet-wide
  // cancellation still needs the peer's own incarnation bump, which the
  // piggyback will deliver). A dead record stays dead — resurrection takes
  // a higher incarnation, not a lucky packet.
  if (record.fact.state == MemberState::kSuspect) {
    record.fact.state = MemberState::kAlive;
  }
}

void MembershipTable::observe_failure(const RemoteEndpoint& peer) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = records_.find(key_of(peer));
  if (it == records_.end()) return;
  Record& record = it->second;
  if (is_terminal(record.fact.state)) return;
  ++record.consecutive_failures;
  if (record.consecutive_failures >= config_.suspect_after_failures) {
    suspect_locally(record);
  }
}

std::vector<RemoteEndpoint> MembershipTable::tick_round() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++round_;
  std::vector<RemoteEndpoint> confirmed;
  for (auto& [key, record] : records_) {
    if (record.fact.state != MemberState::kSuspect) continue;
    if (round_ - record.suspected_at_round >= config_.confirm_after_rounds) {
      record.fact.state = MemberState::kDead;
      confirmed.push_back(record.fact.endpoint);
    }
  }
  return confirmed;
}

std::vector<RemoteEndpoint> MembershipTable::eligible_peers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string self_key = key_of(self_);
  std::vector<RemoteEndpoint> out;
  for (const auto& [key, record] : records_) {
    if (key == self_key) continue;
    if (is_terminal(record.fact.state)) continue;
    out.push_back(record.fact.endpoint);
  }
  return out;
}

MemberState MembershipTable::state_of(const RemoteEndpoint& peer) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key_of(peer));
  return it == records_.end() ? MemberState::kDead : it->second.fact.state;
}

std::size_t MembershipTable::alive_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, record] : records_) {
    if (!is_terminal(record.fact.state)) ++n;
  }
  return n;
}

std::size_t MembershipTable::suspect_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, record] : records_) {
    if (record.fact.state == MemberState::kSuspect) ++n;
  }
  return n;
}

std::size_t MembershipTable::dead_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, record] : records_) {
    if (is_terminal(record.fact.state)) ++n;
  }
  return n;
}

void MembershipTable::leave() {
  const std::lock_guard<std::mutex> lock(mutex_);
  Record& self_record = records_.at(key_of(self_));
  self_record.fact.incarnation += 1;
  self_record.fact.state = MemberState::kLeft;
}

std::string MembershipTable::digest() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [key, record] : records_) {
    out += key;
    out += ' ';
    out += member_state_name(record.fact.state);
    out += '@';
    out += std::to_string(record.fact.incarnation);
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// Piggyback codec
// ---------------------------------------------------------------------------

namespace {

// Each rumor takes >= 21 bytes: 8 host length + 4 port + 1 state + 8 incarnation.
constexpr std::size_t kMinRumorBytes = 21;

void write_rumor(ByteWriter& w, const MemberRumor& rumor) {
  w.str(rumor.endpoint.host);
  w.u32(rumor.endpoint.port);
  w.u8(static_cast<std::uint8_t>(rumor.state));
  w.u64(rumor.incarnation);
}

bool read_rumor(ByteReader& r, MemberRumor& rumor) {
  rumor.endpoint.host = r.str();
  const std::uint32_t port = r.u32();
  const std::uint8_t state = r.u8();
  rumor.incarnation = r.u64();
  if (!r.ok() || port > 0xffff || state > static_cast<std::uint8_t>(MemberState::kLeft)) {
    return false;
  }
  rumor.endpoint.port = static_cast<std::uint16_t>(port);
  rumor.state = static_cast<MemberState>(state);
  return true;
}

}  // namespace

void write_member_rumors(ByteWriter& w, const std::vector<MemberRumor>& rumors) {
  serve::write_list(w, rumors, write_rumor);
}

std::string encode_member_rumors(const std::vector<MemberRumor>& rumors) {
  ByteWriter w;
  write_member_rumors(w, rumors);
  return w.take();
}

Status decode_member_rumors(std::string_view bytes, std::vector<MemberRumor>& out) {
  ByteReader r(bytes);
  switch (serve::read_list(r, kMinRumorBytes, out, read_rumor)) {
    case serve::ListRead::kBadCount:
      return Status::error("membership rumors: corrupt count");
    case serve::ListRead::kBadEntry:
      return Status::error("membership rumors: corrupt entry");
    case serve::ListRead::kOk:
      break;
  }
  if (!r.at_end()) return Status::error("membership rumors: trailing bytes");
  return Status::ok();
}

}  // namespace autophase::net
