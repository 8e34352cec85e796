// Byte-level pins for every payload and blob codec, and a seeded mutation
// fuzz over the same inputs. The digests and error texts below were
// generated once and must not move: a codec refactor that changes a single
// byte on the wire, or the text a peer sees for a malformed payload, fails
// here with the full regenerated table printed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "learn/provenance.hpp"
#include "net/membership.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "progen/chstone_like.hpp"
#include "serve/module_codec.hpp"
#include "serve/serialization.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace autophase {
namespace {

// ---------------------------------------------------------------------------
// Fixed inputs
// ---------------------------------------------------------------------------

constexpr int kTrace = 1;
constexpr int kWeights = 2;
constexpr int kDeadline = 4;

serve::CompileRequest pinned_request(const ir::Module* module, int fields) {
  serve::CompileRequest request;
  request.module = module;
  request.objective = serve::Objective::kCyclesTimesArea;
  request.pass_budget = 6;
  request.beam_width = 3;
  request.model = "agent";
  request.version = 4;
  request.priority = 2;
  if ((fields & kTrace) != 0) {
    request.trace.trace = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
    request.trace.span = 0x42;
  }
  if ((fields & kWeights) != 0) {
    request.weights = {1.0, 0.5, 0.25};
    request.front_width = 4;
  }
  if ((fields & kDeadline) != 0) request.deadline_ms = 250;
  return request;
}

serve::CompileResponse pinned_response(bool canary, bool front) {
  serve::CompileResponse response;
  response.module = progen::build_chstone_like("qsort");
  response.provenance.model = "agent";
  response.provenance.version = 3;
  response.provenance.sequence = {4, 9, 17};
  response.provenance.baseline_cycles = 1200;
  response.provenance.predicted_cycles = 900;
  response.provenance.measured_cycles = 880;
  response.provenance.measured_area = 12.5;
  response.provenance.beams_evaluated = 2;
  response.provenance.canary = canary;
  response.queue_nanos = 1500;
  response.serve_nanos = 250000;
  if (front) {
    response.front = {{{4, 9}, 500, 2.0, 120, 0xBEEF}, {{7}, 650, 1.0, 90, 0xCAFE}};
    response.front_hypervolume = 0.375;
  }
  return response;
}

std::vector<net::MemberRumor> pinned_rumors() {
  return {{{"10.0.0.1", 7001}, 3, net::MemberState::kSuspect},
          {{"10.0.0.2", 7002}, 0, net::MemberState::kAlive},
          {{"10.0.0.3", 7003}, 9, net::MemberState::kLeft}};
}

std::vector<net::ModelSummary> pinned_inventory() {
  return {{"agent", 2, 4096, 0xABCDEF}, {"ranker", 1, 512, 0x1234}};
}

net::SyncRequest pinned_sync_request(net::SyncMode mode, bool rumors, bool inventory) {
  net::SyncRequest request;
  request.mode = mode;
  if (mode == net::SyncMode::kFetch) request.keys = {{"agent", 1}, {"agent", 3}};
  if (rumors) request.rumors = pinned_rumors();
  if (inventory) request.push_inventory = pinned_inventory();
  return request;
}

net::SyncOffer pinned_sync_offer(net::SyncMode mode, bool rumors, bool wants) {
  net::SyncOffer offer;
  offer.mode = mode;
  if (mode == net::SyncMode::kInventory) {
    offer.inventory = pinned_inventory();
  } else {
    offer.blobs = {"blob-one", "", "blob-three"};
  }
  if (rumors) offer.rumors = pinned_rumors();
  if (wants) offer.wants = {{"ranker", 1}};
  return offer;
}

obs::MetricsSnapshot pinned_snapshot() {
  obs::MetricsRegistry registry;
  registry.counter("serve_requests_completed").inc(10);
  registry.counter("serve_model_requests", {{"model", "agent"}, {"outcome", "completed"}}).inc(6);
  registry.gauge("serve_queue_depth_max").set(3);
  registry.gauge_fn("gossip_last_sync_age_ms", {}, [] { return -1.0; });
  for (const double v : {0.5, 3.5, 1.0, 2.0}) registry.histogram("serve_latency_ms").record(v);
  return registry.snapshot();
}

std::vector<learn::ProvenanceRecord> pinned_records() {
  learn::ProvenanceRecord scalar;
  scalar.fingerprint = 0x1122334455667788ULL;
  scalar.module_bytes = "module-bytes";
  scalar.objective = serve::Objective::kCycles;
  scalar.model = "agent";
  scalar.version = 2;
  scalar.sequence = {1, 5, 7};
  scalar.baseline_cycles = 1000;
  scalar.predicted_cycles = 800;
  scalar.measured_cycles = 790;
  scalar.measured_area = 3.25;
  learn::ProvenanceRecord pareto = scalar;
  pareto.fingerprint = 0x99;
  pareto.objective = serve::Objective::kCyclesTimesArea;
  pareto.canary = true;
  pareto.weights = {1.0, 0.5, 0.0};
  return {scalar, pareto};
}

net::ProvenanceBatch pinned_batch() {
  net::ProvenanceBatch batch;
  batch.records = pinned_records();
  batch.remaining = 5;
  batch.dropped = 1;
  return batch;
}

net::CanaryControl pinned_canary() {
  return {net::CanaryAction::kStart, "agent", "agent-canary", 2, 0.25};
}

std::string read_file(const std::string& name) {
  std::ifstream in(std::string(AUTOPHASE_TEST_DATA_DIR) + "/" + name, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// Codecs: one valid encoding each, and decode-then-encode
// ---------------------------------------------------------------------------

struct Codec {
  std::string name;
  std::string bytes;  // a valid encoding of a pinned input
  /// encode(decode(bytes)); nullopt when the decoder refuses the bytes.
  std::function<std::optional<std::string>(std::string_view)> reencode;
  bool enveloped = false;  // magic + version + payload + checksum blob
};

template <typename T, typename Encode>
std::optional<std::string> encode_if_ok(Result<T> decoded, Encode encode) {
  if (!decoded.is_ok()) return std::nullopt;
  return encode(std::move(decoded).value());
}

std::optional<std::string> reencode_compile_request(std::string_view bytes) {
  return encode_if_ok(net::decode_compile_request(bytes), [](net::DecodedCompileRequest d) {
    d.request.module = d.module.get();
    return net::encode_compile_request(d.request);
  });
}

std::optional<std::string> reencode_compile_response(std::string_view bytes) {
  return encode_if_ok(net::decode_compile_response(bytes), [](serve::CompileResponse r) {
    return net::encode_compile_response(std::move(r));
  });
}

std::optional<std::string> reencode_sync_request(std::string_view bytes) {
  return encode_if_ok(net::decode_sync_request(bytes), net::encode_sync_request);
}

std::optional<std::string> reencode_sync_offer(std::string_view bytes) {
  return encode_if_ok(net::decode_sync_offer(bytes),
                      [](net::SyncOffer o) { return net::encode_sync_offer(o); });
}

std::optional<std::string> reencode_model_list(std::string_view bytes) {
  return encode_if_ok(net::decode_model_list(bytes), net::encode_model_list);
}

std::optional<std::string> reencode_publish_request(std::string_view bytes) {
  return encode_if_ok(net::decode_publish_request(bytes), [](const net::PublishRequest& p) {
    return net::encode_publish_request(p.name, p.artifact_blob);
  });
}

std::optional<std::string> reencode_publish_reply(std::string_view bytes) {
  return encode_if_ok(net::decode_publish_reply(bytes),
                      [](net::PublishReply p) { return net::encode_publish_reply(p); });
}

std::optional<std::string> reencode_canary(std::string_view bytes) {
  return encode_if_ok(net::decode_canary_control(bytes), net::encode_canary_control);
}

std::optional<std::string> reencode_snapshot(std::string_view bytes) {
  return encode_if_ok(net::decode_metrics_snapshot(bytes), net::encode_metrics_snapshot);
}

std::optional<std::string> reencode_provenance_request(std::string_view bytes) {
  return encode_if_ok(net::decode_provenance_request(bytes), net::encode_provenance_request);
}

std::optional<std::string> reencode_provenance_reply(std::string_view bytes) {
  return encode_if_ok(net::decode_provenance_reply(bytes),
                      [](net::ProvenanceBatch b) { return net::encode_provenance_reply(b); });
}

std::optional<std::string> reencode_metrics_reply(std::string_view bytes) {
  return encode_if_ok(net::decode_metrics_reply(bytes),
                      [](std::string t) { return net::encode_metrics_reply(t); });
}

std::optional<std::string> reencode_rumors(std::string_view bytes) {
  std::vector<net::MemberRumor> rumors;
  if (!net::decode_member_rumors(std::string(bytes), rumors).is_ok()) return std::nullopt;
  return net::encode_member_rumors(rumors);
}

std::optional<std::string> reencode_module(std::string_view bytes) {
  return encode_if_ok(serve::deserialize_module(bytes), [](std::unique_ptr<ir::Module> m) {
    return serve::serialize_module(*m);
  });
}

std::optional<std::string> reencode_artifact(std::string_view bytes) {
  return encode_if_ok(serve::deserialize_artifact(bytes), serve::serialize_artifact);
}

std::optional<std::string> reencode_records(std::string_view bytes) {
  return encode_if_ok(learn::deserialize_records(bytes), learn::serialize_records);
}

/// Every encoder over its fixed inputs, in pinned order.
std::vector<Codec> pinned_codecs() {
  std::vector<Codec> codecs;
  const auto sha = progen::build_chstone_like("sha");
  for (int fields = 0; fields < 8; ++fields) {
    codecs.push_back({strf("compile request trace=%d weights=%d deadline=%d",
                           (fields & kTrace) != 0, (fields & kWeights) != 0,
                           (fields & kDeadline) != 0),
                      net::encode_compile_request(pinned_request(sha.get(), fields)),
                      reencode_compile_request});
  }
  for (const bool canary : {false, true}) {
    for (const bool front : {false, true}) {
      codecs.push_back({strf("compile response canary=%d front=%d", canary, front),
                        net::encode_compile_response(pinned_response(canary, front)),
                        reencode_compile_response});
    }
  }
  codecs.push_back({"compile response error",
                    net::encode_compile_response(Status::error("no such model")), nullptr});
  for (const net::SyncMode mode : {net::SyncMode::kInventory, net::SyncMode::kFetch}) {
    for (const bool rumors : {false, true}) {
      for (const bool extra : {false, true}) {
        codecs.push_back({strf("sync request mode=%d rumors=%d inventory=%d",
                               static_cast<int>(mode), rumors, extra),
                          net::encode_sync_request(pinned_sync_request(mode, rumors, extra)),
                          reencode_sync_request});
        codecs.push_back({strf("sync offer mode=%d rumors=%d wants=%d", static_cast<int>(mode),
                               rumors, extra),
                          net::encode_sync_offer(pinned_sync_offer(mode, rumors, extra)),
                          reencode_sync_offer});
      }
    }
  }
  codecs.push_back({"model list", net::encode_model_list(pinned_inventory()), reencode_model_list});
  codecs.push_back({"publish request", net::encode_publish_request("agent", "artifact-bytes"),
                    reencode_publish_request});
  codecs.push_back({"publish reply", net::encode_publish_reply(net::PublishReply{"agent", 3, 1}),
                    reencode_publish_reply});
  codecs.push_back({"canary control", net::encode_canary_control(pinned_canary()),
                    reencode_canary});
  codecs.push_back({"metrics snapshot", net::encode_metrics_snapshot(pinned_snapshot()),
                    reencode_snapshot});
  codecs.push_back({"provenance request", net::encode_provenance_request({64}),
                    reencode_provenance_request});
  codecs.push_back({"provenance reply", net::encode_provenance_reply(pinned_batch()),
                    reencode_provenance_reply});
  codecs.push_back({"metrics reply", net::encode_metrics_reply(std::string("up 1\n")),
                    reencode_metrics_reply});
  codecs.push_back({"status reply", net::encode_status_reply(Status::error("refused")),
                    nullptr});
  codecs.push_back({"member rumors", net::encode_member_rumors(pinned_rumors()), reencode_rumors});
  codecs.push_back({"provenance records", learn::serialize_records(pinned_records()),
                    reencode_records, true});
  for (const std::string& kernel : progen::chstone_benchmark_names()) {
    codecs.push_back({"module " + kernel,
                      serve::serialize_module(*progen::build_chstone_like(kernel)),
                      reencode_module, true});
  }
  return codecs;
}

// ---------------------------------------------------------------------------
// Characterization
// ---------------------------------------------------------------------------

struct PinnedDigest {
  const char* name;
  std::uint64_t digest;
};

// FNV-1a of each encoder's bytes, in pinned_codecs() order.
constexpr PinnedDigest kPinnedDigests[] = {
    {"compile request trace=0 weights=0 deadline=0", 0xe16b7f4378dbbcd0ULL},
    {"compile request trace=1 weights=0 deadline=0", 0xd07e8422f06916a9ULL},
    {"compile request trace=0 weights=1 deadline=0", 0xc422f9583ab9d21cULL},
    {"compile request trace=1 weights=1 deadline=0", 0xa3f027804e280c9fULL},
    {"compile request trace=0 weights=0 deadline=1", 0xb11ac816569c09ddULL},
    {"compile request trace=1 weights=0 deadline=1", 0xbdccf2380b90c9f6ULL},
    {"compile request trace=0 weights=1 deadline=1", 0xa40cc9678952ab49ULL},
    {"compile request trace=1 weights=1 deadline=1", 0x86d57712de67061cULL},
    {"compile response canary=0 front=0", 0xf7fdb770b57e1cb6ULL},
    {"compile response canary=0 front=1", 0x5c56ebfd38a20171ULL},
    {"compile response canary=1 front=0", 0xbf6a65d129a10bb4ULL},
    {"compile response canary=1 front=1", 0x11d944718fbabd73ULL},
    {"compile response error", 0x8df6915513546eb9ULL},
    {"sync request mode=0 rumors=0 inventory=0", 0xe604823a249029bfULL},
    {"sync offer mode=0 rumors=0 wants=0", 0x10d21e8cffb4098fULL},
    {"sync request mode=0 rumors=0 inventory=1", 0x6cf7a43b5245d507ULL},
    {"sync offer mode=0 rumors=0 wants=1", 0x36c5fcbaef718391ULL},
    {"sync request mode=0 rumors=1 inventory=0", 0x5d24ca1493e32f5cULL},
    {"sync offer mode=0 rumors=1 wants=0", 0x745f35ae2e49352cULL},
    {"sync request mode=0 rumors=1 inventory=1", 0x5631ed1e72ac93dcULL},
    {"sync offer mode=0 rumors=1 wants=1", 0x3236180cceaf3588ULL},
    {"sync request mode=1 rumors=0 inventory=0", 0x6b65315437273e46ULL},
    {"sync offer mode=1 rumors=0 wants=0", 0x1168f943a4d9c6eeULL},
    {"sync request mode=1 rumors=0 inventory=1", 0x85e5e3f2b03cc8daULL},
    {"sync offer mode=1 rumors=0 wants=1", 0xf2393af2497b8acaULL},
    {"sync request mode=1 rumors=1 inventory=0", 0x3372dac071998f31ULL},
    {"sync offer mode=1 rumors=1 wants=0", 0x18d5d5e18487f639ULL},
    {"sync request mode=1 rumors=1 inventory=1", 0xf3f5b21b4d7eb3cdULL},
    {"sync offer mode=1 rumors=1 wants=1", 0x4d02df0c46218903ULL},
    {"model list", 0x1a8c1cc98ef50847ULL},
    {"publish request", 0xd62aaceba241afc7ULL},
    {"publish reply", 0xdecde5f1da2d21d0ULL},
    {"canary control", 0x8f63fca762fed3b8ULL},
    {"metrics snapshot", 0xaf68d9512a7ae45fULL},
    {"provenance request", 0x6779ba74e3ecc205ULL},
    {"provenance reply", 0x1afd2ef5543abb79ULL},
    {"metrics reply", 0x4ff6d1c8c50f8dffULL},
    {"status reply", 0x639022ada2071e90ULL},
    {"member rumors", 0x1ab126fe284ad05cULL},
    {"provenance records", 0x6b5b4732c40ce414ULL},
    {"module adpcm", 0x25df74fc2ddfb692ULL},
    {"module aes", 0xb5812c3a5731b0a1ULL},
    {"module blowfish", 0x3f7f626a5ec70b58ULL},
    {"module dhrystone", 0xeabe0635fc8ef346ULL},
    {"module gsm", 0x62c00d66e1aad70fULL},
    {"module matmul", 0xee1ae4c36e5c281fULL},
    {"module mpeg2", 0xebda2f8f58ebc0f8ULL},
    {"module qsort", 0xd51658612d2c695cULL},
    {"module sha", 0xc44030452df907beULL},
};

/// A payload with one extra trailer field appended: u8 tag + length-prefixed body.
std::string with_field(std::string payload, std::uint8_t tag, std::string_view body) {
  serve::ByteWriter w;
  w.u8(tag);
  w.str(body);
  return payload + w.bytes();
}

std::string cut(std::string bytes, std::size_t n) {
  bytes.resize(bytes.size() - n);
  return bytes;
}

/// Overwrites the 8 bytes at `at` with a count no payload can hold.
std::string lie_at(std::string bytes, std::size_t at) {
  for (int b = 0; b < 8; ++b) bytes[at + b] = static_cast<char>(b == 6 ? 0x40 : 0);
  return bytes;
}

template <typename T>
std::string outcome(const Result<T>& result) {
  return result.is_ok() ? "ok" : result.message();
}

std::string outcome(const Status& status) { return status.is_ok() ? "ok" : status.message(); }

struct PinnedError {
  const char* name;
  const char* text;
};

// What each payload decoder answers for a truncated payload, a lying count,
// a corrupt known-tag field and an unknown tag ("ok": skipped).
constexpr PinnedError kPinnedErrors[] = {
    {"compile request truncated", "compile request: truncated payload"},
    {"compile request lying module length", "compile request: truncated payload"},
    {"compile request module checksum", "compile request: module blob: checksum mismatch"},
    {"compile request module magic", "compile request: module blob: bad magic"},
    {"compile request corrupt trace", "compile request: corrupt trace field"},
    {"compile request corrupt weights", "compile request: corrupt weights field"},
    {"compile request corrupt deadline", "compile request: corrupt deadline field"},
    {"compile request truncated field", "compile request: truncated payload"},
    {"compile request unknown tag", "ok"},
    {"compile response truncated", "compile response: truncated payload"},
    {"compile response error", "no such model"},
    {"compile response corrupt canary", "compile response: corrupt canary field"},
    {"compile response corrupt front", "compile response: corrupt front field"},
    {"compile response lying front count", "compile response: corrupt front field"},
    {"compile response short front", "compile response: corrupt front field"},
    {"compile response unknown tag", "ok"},
    {"sync request truncated", "sync request: truncated payload"},
    {"sync request lying key count", "sync request: corrupt key count"},
    {"sync request unknown mode", "sync request: unknown mode"},
    {"sync request keys in inventory mode", "sync request: inventory query carries keys"},
    {"sync request lying rumor count", "sync request: membership rumors: corrupt count"},
    {"sync request corrupt rumor", "sync request: membership rumors: corrupt entry"},
    {"sync request corrupt inventory", "sync request: corrupt push inventory field"},
    {"sync request lying inventory count", "sync request: corrupt push inventory field"},
    {"sync request unknown tag", "ok"},
    {"sync offer truncated", "sync offer: truncated payload"},
    {"sync offer lying inventory count", "sync offer: corrupt count"},
    {"sync offer lying blob count", "sync offer: corrupt count"},
    {"sync offer corrupt rumors", "sync offer: membership rumors: corrupt count"},
    {"sync offer corrupt wants", "sync offer: corrupt wants field"},
    {"sync offer unknown tag", "ok"},
    {"model list truncated", "model list: truncated payload"},
    {"model list lying count", "model list: corrupt count"},
    {"publish request truncated", "publish request: truncated payload"},
    {"publish request empty name", "publish request: empty model name"},
    {"publish reply truncated", "publish reply: truncated payload"},
    {"canary control truncated", "canary control: truncated payload"},
    {"canary control unknown action", "canary control: unknown action"},
    {"metrics snapshot truncated", "node stats: corrupt histogram 'serve_latency_ms'"},
    {"metrics snapshot lying counter count", "node stats: corrupt counter count"},
    {"metrics snapshot wrong version",
     "node stats: unsupported stats version 33686018 (expected 7)"},
    {"provenance request truncated", "provenance request: truncated payload"},
    {"provenance request zero", "provenance request: zero max_records"},
    {"provenance reply truncated", "provenance reply: malformed record"},
    {"provenance reply lying count", "provenance reply: corrupt record count"},
    {"provenance reply malformed record", "provenance reply: malformed record"},
    {"provenance reply future version", "provenance reply: unsupported record version 151587081"},
    {"member rumors lying count", "membership rumors: corrupt count"},
    {"member rumors corrupt entry", "membership rumors: corrupt entry"},
    {"member rumors truncated entry", "membership rumors: corrupt entry"},
    {"member rumors trailing bytes", "membership rumors: trailing bytes"},
    {"metrics reply truncated", "metrics reply: truncated payload"},
    {"status reply truncated", "status reply: truncated payload"},
};

std::vector<std::pair<std::string, std::string>> decoder_outcomes() {
  using serve::ByteWriter;
  const auto sha = progen::build_chstone_like("sha");
  const std::string scalar_request = net::encode_compile_request(pinned_request(sha.get(), 0));
  const std::string full_request = net::encode_compile_request(pinned_request(sha.get(), 7));
  const std::string scalar_response = net::encode_compile_response(pinned_response(false, false));
  const std::string full_response = net::encode_compile_response(pinned_response(true, true));
  const std::string inventory_request =
      net::encode_sync_request(pinned_sync_request(net::SyncMode::kInventory, false, false));
  const std::string full_sync_request =
      net::encode_sync_request(pinned_sync_request(net::SyncMode::kFetch, true, true));
  const std::string inventory_offer =
      net::encode_sync_offer(pinned_sync_offer(net::SyncMode::kInventory, false, false));
  const std::string blob_offer =
      net::encode_sync_offer(pinned_sync_offer(net::SyncMode::kFetch, false, false));
  const std::string full_offer =
      net::encode_sync_offer(pinned_sync_offer(net::SyncMode::kFetch, true, true));
  const std::string rumors = net::encode_member_rumors(pinned_rumors());
  const std::string model_list = net::encode_model_list(pinned_inventory());
  const std::string snapshot = net::encode_metrics_snapshot(pinned_snapshot());
  const std::string reply = net::encode_provenance_reply(pinned_batch());

  ByteWriter bad_port;
  bad_port.u64(1);
  bad_port.str("10.0.0.1");
  bad_port.u32(70000);
  bad_port.u8(0);
  bad_port.u64(0);
  ByteWriter zero_deadline;
  zero_deadline.u64(0);
  ByteWriter hostile_front;
  hostile_front.f64(0.5);
  hostile_front.u32(0x7fffffff);
  // A one-point front field four bytes short of the smallest point.
  ByteWriter short_front;
  short_front.f64(0.5);
  short_front.u32(1);
  short_front.str(std::string(28, '\0'));
  // A provenance reply whose one record names objective 9.
  ByteWriter bad_record;
  bad_record.u8(1);
  bad_record.u32(learn::kProvenanceRecordVersion);
  bad_record.u64(0);
  bad_record.u64(0);
  bad_record.u64(1);
  learn::ProvenanceRecord record = pinned_records()[0];
  learn::write_provenance_record(bad_record, record);
  std::string bad_record_bytes = bad_record.take();
  // fingerprint (8) + module bytes (8 + 12) precede the objective byte.
  bad_record_bytes[1 + 4 + 8 + 8 + 8 + 8 + 8 + 12] = 9;
  std::string module_flip = scalar_request;
  module_flip[8 + 20] = static_cast<char>(module_flip[8 + 20] ^ 0x10);
  std::string module_magic = scalar_request;
  module_magic[8] = 'X';

  std::vector<std::pair<std::string, std::string>> got;
  const auto add = [&got](const char* name, std::string text) {
    got.emplace_back(name, std::move(text));
  };
  const auto request = [](std::string_view b) { return outcome(net::decode_compile_request(b)); };
  const auto response = [](std::string_view b) {
    return outcome(net::decode_compile_response(b));
  };
  const auto sync_request = [](std::string_view b) {
    return outcome(net::decode_sync_request(b));
  };
  const auto sync_offer = [](std::string_view b) { return outcome(net::decode_sync_offer(b)); };
  const auto member_rumors = [](std::string_view b) {
    std::vector<net::MemberRumor> out;
    return outcome(net::decode_member_rumors(std::string(b), out));
  };
  const std::string fetch_request =
      net::encode_sync_request(pinned_sync_request(net::SyncMode::kFetch, false, false));
  const std::string inventory_field = lie_at(model_list.substr(1), 0);

  add("compile request truncated", request(cut(full_request, 1)));
  add("compile request lying module length", request(lie_at(scalar_request, 0)));
  add("compile request module checksum", request(module_flip));
  add("compile request module magic", request(module_magic));
  add("compile request corrupt trace",
      request(with_field(scalar_request, net::kCompileTagTrace, "x")));
  add("compile request corrupt weights",
      request(with_field(scalar_request, net::kCompileTagWeights, "abc")));
  add("compile request corrupt deadline",
      request(with_field(scalar_request, net::kCompileTagDeadline, zero_deadline.bytes())));
  add("compile request truncated field",
      request(cut(with_field(scalar_request, net::kCompileTagTrace, std::string(24, '\0')), 1)));
  add("compile request unknown tag", request(with_field(scalar_request, 0x7F, "from the future")));
  add("compile response truncated", response(cut(full_response, 1)));
  add("compile response error",
      response(net::encode_compile_response(Status::error("no such model"))));
  add("compile response corrupt canary",
      response(with_field(scalar_response, net::kCompileTagCanary, "\x02")));
  add("compile response corrupt front",
      response(with_field(scalar_response, net::kCompileTagFront, "front?")));
  add("compile response lying front count",
      response(with_field(scalar_response, net::kCompileTagFront, hostile_front.bytes())));
  add("compile response short front",
      response(with_field(scalar_response, net::kCompileTagFront, short_front.bytes())));
  add("compile response unknown tag", response(with_field(scalar_response, 0x66, "??")));
  add("sync request truncated", sync_request(cut(full_sync_request, 1)));
  add("sync request lying key count", sync_request(lie_at(fetch_request, 1)));
  add("sync request unknown mode", sync_request(std::string(9, '\x07')));
  add("sync request keys in inventory mode",
      sync_request(std::string(1, '\0') + fetch_request.substr(1)));
  add("sync request lying rumor count",
      sync_request(with_field(inventory_request, net::kSyncTagRumors, lie_at(rumors, 0))));
  add("sync request corrupt rumor",
      sync_request(with_field(inventory_request, net::kSyncTagRumors, bad_port.bytes())));
  add("sync request corrupt inventory",
      sync_request(with_field(inventory_request, net::kSyncTagInventory, "x")));
  add("sync request lying inventory count",
      sync_request(with_field(inventory_request, net::kSyncTagInventory, inventory_field)));
  add("sync request unknown tag", sync_request(with_field(inventory_request, 0x40, "later")));
  add("sync offer truncated", sync_offer(cut(full_offer, 1)));
  add("sync offer lying inventory count", sync_offer(lie_at(inventory_offer, 2)));
  add("sync offer lying blob count", sync_offer(lie_at(blob_offer, 2)));
  add("sync offer corrupt rumors", sync_offer(with_field(blob_offer, net::kSyncTagRumors, "x")));
  add("sync offer corrupt wants", sync_offer(with_field(blob_offer, net::kSyncTagWants, "x")));
  add("sync offer unknown tag", sync_offer(with_field(blob_offer, 0x40, "later")));
  add("model list truncated", outcome(net::decode_model_list(cut(model_list, 1))));
  add("model list lying count", outcome(net::decode_model_list(lie_at(model_list, 1))));
  add("publish request truncated",
      outcome(net::decode_publish_request(cut(net::encode_publish_request("agent", "blob"), 1))));
  add("publish request empty name",
      outcome(net::decode_publish_request(net::encode_publish_request("", "blob"))));
  add("publish reply truncated",
      outcome(net::decode_publish_reply(
          cut(net::encode_publish_reply(net::PublishReply{"agent", 3, 1}), 1))));
  add("canary control truncated",
      outcome(net::decode_canary_control(cut(net::encode_canary_control(pinned_canary()), 1))));
  add("canary control unknown action", outcome(net::decode_canary_control(std::string(1, '\x09'))));
  add("metrics snapshot truncated", outcome(net::decode_metrics_snapshot(cut(snapshot, 1))));
  add("metrics snapshot lying counter count",
      outcome(net::decode_metrics_snapshot(snapshot.substr(0, 5) + "\xff\xff\xff\x7f")));
  add("metrics snapshot wrong version",
      outcome(net::decode_metrics_snapshot(std::string(1, '\x01') + std::string(4, '\x02'))));
  add("provenance request truncated",
      outcome(net::decode_provenance_request(cut(net::encode_provenance_request({64}), 1))));
  add("provenance request zero",
      outcome(net::decode_provenance_request(net::encode_provenance_request({0}))));
  add("provenance reply truncated", outcome(net::decode_provenance_reply(cut(reply, 1))));
  add("provenance reply lying count", outcome(net::decode_provenance_reply(lie_at(reply, 21))));
  add("provenance reply malformed record",
      outcome(net::decode_provenance_reply(bad_record_bytes)));
  add("provenance reply future version",
      outcome(net::decode_provenance_reply(std::string(1, '\x01') + std::string(4, '\x09'))));
  add("member rumors lying count", member_rumors(lie_at(rumors, 0)));
  add("member rumors corrupt entry", member_rumors(bad_port.bytes()));
  add("member rumors truncated entry", member_rumors(cut(rumors, 1)));
  add("member rumors trailing bytes", member_rumors(rumors + "x"));
  add("metrics reply truncated",
      outcome(net::decode_metrics_reply(cut(net::encode_metrics_reply(std::string("up\n")), 1))));
  add("status reply truncated", outcome(net::decode_status_reply("")));
  return got;
}

TEST(WireCharacterization, EveryEncoderAnswersAsPinned) {
  const std::vector<Codec> codecs = pinned_codecs();
  std::string table;
  for (const Codec& codec : codecs) {
    table += strf("    {\"%s\", 0x%016llxULL},\n", codec.name.c_str(),
                  static_cast<unsigned long long>(fnv1a(codec.bytes)));
  }
  ASSERT_EQ(std::size(kPinnedDigests), codecs.size()) << table;
  for (std::size_t i = 0; i < codecs.size(); ++i) {
    EXPECT_EQ(codecs[i].name, kPinnedDigests[i].name) << table;
    EXPECT_EQ(fnv1a(codecs[i].bytes), kPinnedDigests[i].digest) << table;
    // Every valid encoding decodes and re-encodes to itself.
    if (codecs[i].reencode) {
      EXPECT_EQ(codecs[i].reencode(codecs[i].bytes), codecs[i].bytes) << codecs[i].name;
    }
  }

  const auto outcomes = decoder_outcomes();
  std::string errors;
  for (const auto& [name, text] : outcomes) {
    errors += strf("    {\"%s\", \"%s\"},\n", name.c_str(), text.c_str());
  }
  ASSERT_EQ(std::size(kPinnedErrors), outcomes.size()) << errors;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].first, kPinnedErrors[i].name) << errors;
    EXPECT_EQ(outcomes[i].second, kPinnedErrors[i].text) << outcomes[i].first << "\n" << errors;
  }
}

// ---------------------------------------------------------------------------
// Seeded payload-mutation fuzz
// ---------------------------------------------------------------------------

/// Rewrites an enveloped blob's length and checksum to match its (mutated)
/// payload, so the mutation reaches the payload decoder behind the checksum.
void reseal(std::string& blob) {
  constexpr std::size_t kHeader = 4 + 4 + 8;
  if (blob.size() < kHeader + 8) return;
  const std::uint64_t length = blob.size() - kHeader - 8;
  const std::uint64_t checksum = fnv1a(std::string_view(blob).substr(kHeader, length));
  for (int b = 0; b < 8; ++b) {
    blob[8 + b] = static_cast<char>((length >> (8 * b)) & 0xff);
    blob[blob.size() - 8 + b] = static_cast<char>((checksum >> (8 * b)) & 0xff);
  }
}

void mutate(std::string& bytes, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      const std::size_t bit = pick(bytes.size() * 8);
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1u << (bit % 8)));
      break;
    }
    case 1:
      bytes.resize(pick(bytes.size()));
      break;
    default: {
      if (bytes.size() < 8) break;
      // A count lie: small, just past the bytes left, or huge.
      const std::uint64_t lies[] = {rng.next() % 64, bytes.size(), rng.next(), ~0ull};
      const std::uint64_t lie = lies[pick(std::size(lies))];
      const std::size_t at = pick(bytes.size() - 7);
      for (int b = 0; b < 8; ++b) bytes[at + b] = static_cast<char>((lie >> (8 * b)) & 0xff);
      break;
    }
  }
}

/// Every decoder, fed seeded bit flips, truncations and 8-byte count lies of
/// its pinned inputs (and of the golden artifact and provenance blobs),
/// either refuses the bytes or returns a value whose encoding is a fixed
/// point: encode(decode(encode(v))) == encode(v). No crash, no over-read
/// (ASan-checked in CI), no count-sized allocation.
TEST(WireFuzz, SeededMutationsDecodeToAFixedPointOrFail) {
  std::vector<Codec> codecs = pinned_codecs();
  codecs.push_back({"artifact v2", read_file("policy_artifact_v2_baselines.bin"),
                    reencode_artifact, true});
  codecs.push_back({"artifact unknown section", read_file("policy_artifact_v2_unknown_section.bin"),
                    reencode_artifact, true});
  codecs.push_back({"provenance v1", read_file("provenance_v1.bin"), reencode_records, true});
  Rng rng(22);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 20000; ++round) {
    const Codec& codec = codecs[static_cast<std::size_t>(round) % codecs.size()];
    if (!codec.reencode) continue;
    ASSERT_FALSE(codec.bytes.empty()) << codec.name;
    std::string bytes = codec.bytes;
    mutate(bytes, rng);
    if (codec.enveloped && rng.uniform_int(0, 1) == 1) reseal(bytes);
    const std::optional<std::string> once = codec.reencode(bytes);
    if (!once) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::optional<std::string> twice = codec.reencode(*once);
    ASSERT_TRUE(twice.has_value()) << codec.name << " round " << round;
    EXPECT_EQ(*twice, *once) << codec.name << " round " << round;
  }
  std::printf("wire fuzz: %zu accepted, %zu rejected\n", accepted, rejected);
  // Both outcomes must occur for the fuzz to mean anything.
  EXPECT_GT(rejected, 500u);
  EXPECT_GT(accepted, 100u);
}

}  // namespace
}  // namespace autophase
