#include "net/sim_transport.hpp"

#include "net/wire.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace autophase::net {

namespace {

// Virtual link latency per direction, drawn uniformly from this range.
constexpr std::int64_t kMinLatencyUs = 50;
constexpr std::int64_t kMaxLatencyUs = 2'000;
/// Virtual time a failed exchange costs the caller (its "timeout").
constexpr std::uint64_t kExchangeTimeoutUs = 50'000;

}  // namespace

SimWorld::SimWorld(std::uint64_t seed, SimFaultConfig faults) : rng_(seed), faults_(faults) {}

RemoteEndpoint SimWorld::add_node(Handler handler) {
  handlers_.push_back(std::move(handler));
  return {"sim", static_cast<std::uint16_t>(handlers_.size())};
}

std::unique_ptr<Transport> SimWorld::transport(const RemoteEndpoint& self) {
  return std::make_unique<SimTransport>(*this, self.port);
}

void SimWorld::partition(const std::vector<std::vector<std::uint16_t>>& groups) {
  partition_group_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const std::uint16_t port : groups[g]) partition_group_[port] = static_cast<int>(g);
  }
  partitioned_ = true;
  note("partition");
}

void SimWorld::heal() {
  partition_group_.clear();
  partitioned_ = false;
  note("heal");
}

void SimWorld::kill(std::uint16_t port) {
  down_.insert(port);
  note(strf("kill node:%u", port));
}

void SimWorld::restart(std::uint16_t port) {
  down_.erase(port);
  note(strf("restart node:%u", port));
}

bool SimWorld::node_down(std::uint16_t port) const { return down_.count(port) != 0; }

void SimWorld::replace_handler(std::uint16_t port, Handler handler) {
  if (port == 0 || port > handlers_.size()) return;
  handlers_[port - 1] = std::move(handler);
  note(strf("replace node:%u", port));
}

bool SimWorld::severed(std::uint16_t a, std::uint16_t b) const {
  if (!partitioned_) return false;
  // A node not listed in any group is isolated (its own singleton group).
  const auto ita = partition_group_.find(a);
  const auto itb = partition_group_.find(b);
  const int ga = ita != partition_group_.end() ? ita->second : -static_cast<int>(a);
  const int gb = itb != partition_group_.end() ? itb->second : -static_cast<int>(b);
  return ga != gb;
}

void SimWorld::advance_latency() {
  now_us_ += static_cast<std::uint64_t>(rng_.uniform_int(kMinLatencyUs, kMaxLatencyUs));
}

void SimWorld::note(const std::string& line) {
  trace_ += strf("t=%010llu ", static_cast<unsigned long long>(now_us_));
  trace_ += line;
  trace_ += '\n';
  // The textual trace above is the replay-determinism contract (tests compare
  // it byte for byte); the structured copy is the export surface.
  events_.push_back(obs::InstantEvent{now_us_, line, "sim", {}});
}

std::string SimWorld::chrome_trace() const {
  return obs::chrome_trace_json({}, events_, "sim-world");
}

bool SimWorld::transmit_intact(std::string& bytes, Frame& out, const char* leg) {
  bool mutated = false;
  if (bytes.size() > 1 && rng_.chance(faults_.truncate)) {
    const auto cut = static_cast<std::size_t>(
        rng_.uniform_int(1, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes.resize(cut);
    mutated = true;
    note(strf("%s truncated at %zu", leg, cut));
  }
  if (!bytes.empty() && rng_.chance(faults_.corrupt)) {
    const auto bit = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(bytes.size()) * 8 - 1));
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1u << (bit % 8)));
    mutated = true;
    note(strf("%s corrupted bit %zu", leg, bit));
  }
  // The receiver sees exactly these bytes and runs the production frame
  // parser on them: a torn or corrupted frame must be rejected there, which
  // is precisely the no-torn-blob guarantee the chaos suite pins down.
  std::string buffer = bytes;
  std::string error;
  const FrameParse parsed = try_parse_frame(buffer, out, error, kDefaultMaxPayload);
  if (parsed != FrameParse::kFrame) {
    ++counters_.torn;
    note(strf("%s rejected by decoder (%s)", leg,
              parsed == FrameParse::kNeedMore ? "incomplete" : error.c_str()));
    return false;
  }
  (void)mutated;  // a mutation may still parse (e.g. a flipped request-id bit)
  return true;
}

Result<Frame> SimWorld::exchange(std::uint16_t src, const RemoteEndpoint& peer,
                                 const Frame& request) {
  ++counters_.exchanges;
  const std::uint16_t dst = peer.port;
  note(strf("x%llu %u->%u type=%u id=%llu payload=%016llx/%zu",
            static_cast<unsigned long long>(counters_.exchanges), src, dst,
            static_cast<unsigned>(request.type),
            static_cast<unsigned long long>(request.request_id),
            static_cast<unsigned long long>(fnv1a(request.payload)), request.payload.size()));
  if (peer.host != "sim" || dst == 0 || dst > handlers_.size()) {
    note("no such node");
    return Status::error(strf("sim: no node at %s:%u", peer.host.c_str(), dst));
  }
  // A killed node neither sends nor answers: the caller burns its timeout,
  // exactly like a connect to a crashed box. Frames already held on links
  // into it stay held — they arrive stale if the node ever restarts.
  if (node_down(src) || node_down(dst)) {
    ++counters_.node_down;
    now_us_ += kExchangeTimeoutUs;
    note(node_down(dst) ? "peer down" : "caller down");
    return node_down(dst) ? Status::error("sim: peer down (deadline exceeded)")
                          : Status::error("sim: caller is down");
  }
  if (severed(src, dst)) {
    ++counters_.partitioned;
    now_us_ += kExchangeTimeoutUs;
    note("partitioned link");
    return Status::error("sim: partitioned (deadline exceeded)");
  }

  // Anything held back on this link arrives first — stale frames delivered
  // after newer ones were already processed. Their replies go nowhere (the
  // exchange that sent them timed out long ago), so idempotency is all that
  // keeps the registries right.
  if (const auto held = held_.find({src, dst}); held != held_.end() && !held->second.empty()) {
    std::vector<std::string> stale = std::move(held->second);
    held_.erase(held);
    for (std::string& bytes : stale) {
      ++counters_.stale;
      counters_.wire_bytes += bytes.size();
      Frame frame;
      if (transmit_intact(bytes, frame, "stale")) {
        note(strf("stale delivered type=%u", static_cast<unsigned>(frame.type)));
        (void)handlers_[dst - 1](frame);
      }
    }
  }

  // Request leg.
  advance_latency();
  std::string bytes = encode_frame(request);
  if (rng_.chance(faults_.drop)) {
    counters_.wire_bytes += bytes.size();  // traveled, lost in transit
    ++counters_.dropped;
    now_us_ += kExchangeTimeoutUs;
    note("request dropped");
    return Status::error("sim: request dropped (deadline exceeded)");
  }
  if (rng_.chance(faults_.delay)) {
    // Not counted as wire bytes yet: the frame travels (and is counted)
    // when it is re-delivered stale.
    held_[{src, dst}].push_back(std::move(bytes));
    ++counters_.delayed;
    now_us_ += kExchangeTimeoutUs;
    note("request held for stale re-delivery");
    return Status::error("sim: request delayed past deadline");
  }
  counters_.wire_bytes += bytes.size();
  Frame delivered;
  if (!transmit_intact(bytes, delivered, "request")) {
    now_us_ += kExchangeTimeoutUs;
    return Status::error("sim: request torn in flight");
  }
  ++counters_.delivered;
  const bool duplicate = rng_.chance(faults_.duplicate);
  Frame reply = handlers_[dst - 1](delivered);
  if (duplicate) {
    ++counters_.duplicated;
    note("request duplicated (handler re-run)");
    (void)handlers_[dst - 1](delivered);
  }

  // Reply leg.
  advance_latency();
  std::string reply_bytes = encode_frame(reply);
  counters_.wire_bytes += reply_bytes.size();
  if (rng_.chance(faults_.drop)) {
    ++counters_.dropped;
    now_us_ += kExchangeTimeoutUs;
    note("reply dropped");
    return Status::error("sim: reply dropped (deadline exceeded)");
  }
  Frame parsed_reply;
  if (!transmit_intact(reply_bytes, parsed_reply, "reply")) {
    now_us_ += kExchangeTimeoutUs;
    return Status::error("sim: reply torn in flight");
  }
  ++counters_.replies;
  note(strf("ok type=%u payload=%016llx/%zu", static_cast<unsigned>(parsed_reply.type),
            static_cast<unsigned long long>(fnv1a(parsed_reply.payload)),
            parsed_reply.payload.size()));
  if (parsed_reply.type == MsgType::kError) {
    return Status::error(decode_status_reply(parsed_reply.payload).message());
  }
  return parsed_reply;
}

}  // namespace autophase::net
