#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "passes/pipelines.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/fleet_monitor.hpp"
#include "serve/module_codec.hpp"
#include "serve/remote_client.hpp"
#include "serve/serialization.hpp"
#include "support/hash.hpp"

namespace autophase {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

rl::EnvConfig tiny_env_config() {
  rl::EnvConfig cfg;
  cfg.episode_length = 4;
  cfg.observation = rl::ObservationMode::kActionHistogram;
  return cfg;
}

serve::PolicyArtifact make_test_artifact(const ir::Module* program, std::uint64_t seed) {
  const rl::EnvConfig cfg = tiny_env_config();
  rl::PhaseOrderEnv env({program}, cfg);
  rl::PpoConfig ppo;
  ppo.hidden = {12};
  ppo.seed = seed;
  rl::PpoTrainer trainer(env, ppo);
  return serve::make_artifact(trainer.export_policy(), cfg);
}

/// A gauge's value read by name from a kStats snapshot; NaN when the node
/// does not expose it, so a missing instrument fails every comparison.
double gauge_of(const obs::MetricsSnapshot& stats, const std::string& name) {
  const obs::GaugeSummary* gauge = stats.gauge(name);
  return gauge != nullptr ? gauge->sum : std::numeric_limits<double>::quiet_NaN();
}

/// A started two-piece serving node for end-to-end tests.
struct NodeHarness {
  std::shared_ptr<serve::ModelRegistry> registry = std::make_shared<serve::ModelRegistry>();
  std::shared_ptr<runtime::EvalService> eval = std::make_shared<runtime::EvalService>();
  std::unique_ptr<net::ServeNode> node;

  explicit NodeHarness(net::ServeNodeConfig config = {}) {
    node = std::make_unique<net::ServeNode>(registry, eval, config);
    const Status started = node->start();
    EXPECT_TRUE(started.is_ok()) << started.message();
  }
};

// ---------------------------------------------------------------------------
// Module codec
// ---------------------------------------------------------------------------

TEST(ModuleCodec, ChstoneRoundTripPreservesPrintAndFingerprint) {
  for (const char* name : {"sha", "gsm", "qsort", "adpcm"}) {
    auto m = progen::build_chstone_like(name);
    const std::string bytes = serve::serialize_module(*m);
    auto decoded = serve::deserialize_module(bytes);
    ASSERT_TRUE(decoded.is_ok()) << name << ": " << decoded.message();
    EXPECT_EQ(ir::print_module(*decoded.value()), ir::print_module(*m)) << name;
    EXPECT_EQ(ir::module_fingerprint(*decoded.value()), ir::module_fingerprint(*m));
    EXPECT_TRUE(ir::verify_module(*decoded.value()).is_ok());
    // Canonical: serialize-of-deserialize is byte-identical.
    EXPECT_EQ(serve::serialize_module(*decoded.value()), bytes) << name;
  }
}

TEST(ModuleCodec, RandomProgramsRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto m = progen::generate_filtered_program(seed * 7919);
    auto decoded = serve::deserialize_module(serve::serialize_module(*m));
    ASSERT_TRUE(decoded.is_ok()) << "seed " << seed << ": " << decoded.message();
    EXPECT_EQ(ir::print_module(*decoded.value()), ir::print_module(*m)) << "seed " << seed;
  }
}

TEST(ModuleCodec, OptimizedModuleRoundTrips) {
  // -O3-style pipelines produce the IR shapes serving actually ships back
  // (collapsed CFGs, phis, rewritten calls); they must survive the codec too.
  auto m = progen::build_chstone_like("sha");
  passes::run_o3(*m);
  ASSERT_TRUE(ir::verify_module(*m).is_ok());
  auto decoded = serve::deserialize_module(serve::serialize_module(*m));
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  EXPECT_EQ(ir::print_module(*decoded.value()), ir::print_module(*m));
}

TEST(ModuleCodec, CorruptionIsRejectedCleanly) {
  auto m = progen::build_chstone_like("qsort");
  const std::string bytes = serve::serialize_module(*m);

  EXPECT_FALSE(serve::deserialize_module("garbage").is_ok());
  // Truncation at every 97th offset: never a crash, always an error.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 97) {
    EXPECT_FALSE(serve::deserialize_module(std::string_view(bytes).substr(0, cut)).is_ok());
  }
  // Flipped bytes either fail the checksum or (if they survive framing by
  // absurd luck) the structural validation / verifier.
  for (std::size_t at : {bytes.size() / 3, bytes.size() / 2, bytes.size() - 9}) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x5a);
    EXPECT_FALSE(serve::deserialize_module(flipped).is_ok()) << "offset " << at;
  }
}

TEST(ModuleCodec, HostileArityCountsAreRejectedWithoutAllocating) {
  // A hand-crafted blob (valid magic/version/checksum) declaring a call with
  // ~2^26 arguments in a few dozen payload bytes: the decoder must reject it
  // from the count guard, not iterate or allocate count-many entries.
  serve::ByteWriter payload;
  payload.str("evil");  // module name
  payload.u64(0);       // globals
  payload.u64(1);       // functions
  payload.str("f");     // signature: name
  payload.u8(0);        //   return type: void
  payload.u64(0);       //   no args
  payload.u8(0);        //   attrs
  payload.u64(1);       // body: one block
  payload.str("entry");
  payload.u64(1);  // one instruction
  payload.u8(static_cast<std::uint8_t>(ir::Opcode::kCall));
  payload.str("");
  payload.u8(0);            // result type: void
  payload.u32(0);           // callee index
  payload.u64(1ull << 26);  // 67M-argument promise in a tiny payload

  serve::ByteWriter framed;
  framed.u32(0x424D5041);  // "APMB"
  framed.u32(1);
  framed.str(payload.bytes());
  framed.u64(fnv1a(payload.bytes()));

  const auto t0 = std::chrono::steady_clock::now();
  auto decoded = serve::deserialize_module(framed.bytes());
  EXPECT_FALSE(decoded.is_ok());
  EXPECT_NE(decoded.message().find("call arity"), std::string::npos) << decoded.message();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

// ---------------------------------------------------------------------------
// Frame parsing
// ---------------------------------------------------------------------------

net::Frame ping_frame(std::uint64_t id, std::string payload) {
  net::Frame f;
  f.type = net::MsgType::kPing;
  f.request_id = id;
  f.payload = std::move(payload);
  return f;
}

TEST(WireFrame, RoundTripAndIncrementalDelivery) {
  const std::string bytes = net::encode_frame(ping_frame(42, "hello"));
  net::Frame out;
  std::string error;

  // Dribble the frame in one byte at a time: kNeedMore until the last byte.
  std::string buffer;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    buffer.push_back(bytes[i]);
    EXPECT_EQ(net::try_parse_frame(buffer, out, error), net::FrameParse::kNeedMore);
  }
  buffer.push_back(bytes.back());
  ASSERT_EQ(net::try_parse_frame(buffer, out, error), net::FrameParse::kFrame);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.payload, "hello");
  EXPECT_TRUE(buffer.empty());

  // Two frames back to back parse in order and drain the buffer.
  buffer = net::encode_frame(ping_frame(1, "a")) + net::encode_frame(ping_frame(2, "b"));
  ASSERT_EQ(net::try_parse_frame(buffer, out, error), net::FrameParse::kFrame);
  EXPECT_EQ(out.request_id, 1u);
  ASSERT_EQ(net::try_parse_frame(buffer, out, error), net::FrameParse::kFrame);
  EXPECT_EQ(out.request_id, 2u);
  EXPECT_TRUE(buffer.empty());
}

TEST(WireFrame, ChecksumMismatchIsAProtocolError) {
  std::string bytes = net::encode_frame(ping_frame(7, "payload"));
  bytes[net::kFrameHeaderBytes + 2] ^= 0x40;  // corrupt the payload in place
  net::Frame out;
  std::string error;
  EXPECT_EQ(net::try_parse_frame(bytes, out, error), net::FrameParse::kError);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(WireFrame, OversizeLengthPrefixIsRejectedBeforeAllocation) {
  serve::ByteWriter w;
  w.u32(net::kWireMagic);
  w.u32(net::kWireVersion);
  w.u8(static_cast<std::uint8_t>(net::MsgType::kCompile));
  w.u64(1);                      // request id
  w.u64(1ull << 40);             // one-terabyte payload promise
  std::string buffer = w.take();
  net::Frame out;
  std::string error;
  EXPECT_EQ(net::try_parse_frame(buffer, out, error), net::FrameParse::kError);
  EXPECT_NE(error.find("oversize"), std::string::npos) << error;
}

TEST(WireFrame, BadMagicAndFutureVersionAreRejected) {
  std::string bytes = net::encode_frame(ping_frame(1, "x"));
  net::Frame out;
  std::string error;

  std::string bad_magic = bytes;
  bad_magic[0] = 'Z';
  EXPECT_EQ(net::try_parse_frame(bad_magic, out, error), net::FrameParse::kError);

  std::string future = bytes;
  future[4] = 99;  // version little-endian low byte
  EXPECT_EQ(net::try_parse_frame(future, out, error), net::FrameParse::kError);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// End-to-end serving over loopback
// ---------------------------------------------------------------------------

TEST(RemoteServe, ResponseBytesIdenticalToCompileSync) {
  auto sha = progen::build_chstone_like("sha");
  auto gsm = progen::build_chstone_like("gsm");
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(sha.get(), 21));

  serve::RemoteCompileClient client({harness.node->endpoint()});
  for (const ir::Module* module : {sha.get(), gsm.get()}) {
    serve::CompileRequest request;
    request.module = module;
    request.model = "agent";
    request.objective = serve::Objective::kFixedBudget;
    request.pass_budget = 3;

    auto remote = client.compile(request);
    ASSERT_TRUE(remote.is_ok()) << remote.message();
    auto local = harness.node->service().compile_sync(request);
    ASSERT_TRUE(local.is_ok()) << local.message();

    // The acceptance bar: the remote answer is byte-identical to the owning
    // node's compile_sync — provenance and optimized module both.
    EXPECT_EQ(net::response_identity_bytes(remote.value()),
              net::response_identity_bytes(local.value()));
    EXPECT_EQ(remote.value().provenance.sequence, local.value().provenance.sequence);
    EXPECT_EQ(ir::print_module(*remote.value().module), ir::print_module(*local.value().module));
  }
}

// ---------------------------------------------------------------------------
// Pareto wire fields (v4)
// ---------------------------------------------------------------------------

TEST(WireCompile, WeightlessRequestBytesAreLegacyAndWeightsRoundTrip) {
  auto m = progen::build_chstone_like("sha");
  serve::CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  request.pass_budget = 3;

  // A weightless request emits zero trailer fields: the weights feature
  // leaves no trace on scalar traffic, which is the bit-identity guarantee.
  const std::string scalar_bytes = net::encode_compile_request(request);
  auto scalar = net::decode_compile_request(scalar_bytes);
  ASSERT_TRUE(scalar.is_ok()) << scalar.message();
  EXPECT_FALSE(scalar.value().request.weights.active());

  request.weights = {1.0, 0.5, 0.25};
  request.front_width = 5;
  const std::string weighted_bytes = net::encode_compile_request(request);
  ASSERT_GT(weighted_bytes.size(), scalar_bytes.size());
  EXPECT_EQ(weighted_bytes.compare(0, scalar_bytes.size(), scalar_bytes), 0)
      << "weights trailer must append, not rewrite";

  auto weighted = net::decode_compile_request(weighted_bytes);
  ASSERT_TRUE(weighted.is_ok()) << weighted.message();
  EXPECT_EQ(weighted.value().request.weights, request.weights);
  EXPECT_EQ(weighted.value().request.front_width, 5);
  // Re-encoding the decoded request reproduces the bytes (f64 bit patterns).
  weighted.value().request.module = weighted.value().module.get();
  EXPECT_EQ(net::encode_compile_request(weighted.value().request), weighted_bytes);
}

TEST(WireCompile, CorruptWeightsFieldsRejectedAndUnknownTagsSkipped) {
  auto m = progen::build_chstone_like("sha");
  serve::CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  const std::string scalar_bytes = net::encode_compile_request(request);

  // A known tag with a bad body is a hard error: negative weight,
  // out-of-range front width, and a short field all bounce.
  request.weights = {1.0, -0.5, 0.0};
  auto negative = net::decode_compile_request(net::encode_compile_request(request));
  ASSERT_FALSE(negative.is_ok());
  EXPECT_NE(negative.message().find("corrupt weights"), std::string::npos)
      << negative.message();

  request.weights = {1.0, 0.0, 0.0};
  request.front_width = 0;
  auto zero_width = net::decode_compile_request(net::encode_compile_request(request));
  ASSERT_FALSE(zero_width.is_ok());
  EXPECT_NE(zero_width.message().find("corrupt weights"), std::string::npos);

  serve::ByteWriter short_field;
  short_field.u8(net::kCompileTagWeights);
  short_field.str("abc");
  EXPECT_FALSE(net::decode_compile_request(scalar_bytes + short_field.take()).is_ok());

  // Unknown tags are skipped — a newer peer's field passes through cleanly.
  serve::ByteWriter future_field;
  future_field.u8(0x7F);
  future_field.str("from the future");
  auto skipped = net::decode_compile_request(scalar_bytes + future_field.take());
  ASSERT_TRUE(skipped.is_ok()) << skipped.message();
  EXPECT_FALSE(skipped.value().request.weights.active());
}

TEST(WireCompile, FrontFieldRoundTripsAndCorruptionIsRejected) {
  serve::CompileResponse scalar;
  scalar.module = progen::build_chstone_like("sha");
  scalar.provenance.model = "agent";
  scalar.provenance.version = 1;
  scalar.provenance.sequence = {4, 9};
  scalar.provenance.measured_cycles = 500;
  const std::string scalar_bytes = net::encode_compile_response(std::move(scalar));

  serve::CompileResponse with_front;
  with_front.module = progen::build_chstone_like("sha");
  with_front.provenance.model = "agent";
  with_front.provenance.version = 1;
  with_front.provenance.sequence = {4, 9};
  with_front.provenance.measured_cycles = 500;
  with_front.front = {{{4, 9}, 500, 2.0, 120, 0xBEEF}, {{7}, 650, 1.0, 90, 0xCAFE}};
  with_front.front_hypervolume = 0.375;
  auto scalar_decoded = net::decode_compile_response(scalar_bytes);
  ASSERT_TRUE(scalar_decoded.is_ok()) << scalar_decoded.message();
  const std::string identity_scalar = net::response_identity_bytes(scalar_decoded.value());
  const std::string front_bytes = net::encode_compile_response(std::move(with_front));

  // The front travels as an appended tagged field; scalar responses carry
  // no trace of it.
  ASSERT_GT(front_bytes.size(), scalar_bytes.size());
  EXPECT_EQ(front_bytes.compare(0, scalar_bytes.size(), scalar_bytes), 0);

  auto decoded = net::decode_compile_response(front_bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  ASSERT_EQ(decoded.value().front.size(), 2u);
  EXPECT_EQ(decoded.value().front[0].sequence, (std::vector<int>{4, 9}));
  EXPECT_EQ(decoded.value().front[0].cycles, 500u);
  EXPECT_EQ(decoded.value().front[1].ir_size, 90u);
  EXPECT_EQ(decoded.value().front[1].fingerprint, 0xCAFEu);
  EXPECT_DOUBLE_EQ(decoded.value().front_hypervolume, 0.375);
  // The front is part of the response identity: replicas must agree on the
  // whole set, and a decoded front re-encodes bit-exactly.
  EXPECT_NE(net::response_identity_bytes(decoded.value()), identity_scalar);
  EXPECT_EQ(net::encode_compile_response(std::move(decoded).value()), front_bytes);

  // A known tag with a garbage body is a hard error...
  serve::ByteWriter garbage;
  garbage.u8(net::kCompileTagFront);
  garbage.str("not a front");
  auto corrupt = net::decode_compile_response(scalar_bytes + garbage.take());
  ASSERT_FALSE(corrupt.is_ok());
  EXPECT_NE(corrupt.message().find("corrupt front"), std::string::npos) << corrupt.message();

  // ...including a hostile point count, which bounces before any allocation.
  serve::ByteWriter hostile_body;
  hostile_body.f64(0.5);
  hostile_body.u32(0x7fffffff);
  serve::ByteWriter hostile;
  hostile.u8(net::kCompileTagFront);
  hostile.str(hostile_body.take());
  EXPECT_FALSE(net::decode_compile_response(scalar_bytes + hostile.take()).is_ok());

  // Unknown response tags skip, same as the request side.
  serve::ByteWriter future_field;
  future_field.u8(0x66);
  future_field.str("??");
  EXPECT_TRUE(net::decode_compile_response(scalar_bytes + future_field.take()).is_ok());
}

TEST(RemoteServe, ParetoFrontOverTheWireIsByteIdenticalToCompileSync) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(sha.get(), 21));

  serve::RemoteCompileClient client({harness.node->endpoint()});
  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  request.weights = {1.0, 0.0, 1.0};
  request.front_width = 4;

  auto remote = client.compile(request);
  ASSERT_TRUE(remote.is_ok()) << remote.message();
  auto local = harness.node->service().compile_sync(request);
  ASSERT_TRUE(local.is_ok()) << local.message();

  // The acceptance bar, extended to multi-objective serving: the remote
  // front is the local front, byte for byte, and it verifies nondominated.
  ASSERT_FALSE(remote.value().front.empty());
  EXPECT_TRUE(serve::is_nondominated(remote.value().front, request.weights));
  EXPECT_EQ(net::response_identity_bytes(remote.value()),
            net::response_identity_bytes(local.value()));
  ASSERT_EQ(remote.value().front.size(), local.value().front.size());
  for (std::size_t i = 0; i < remote.value().front.size(); ++i) {
    EXPECT_EQ(remote.value().front[i].sequence, local.value().front[i].sequence);
    EXPECT_EQ(remote.value().front[i].fingerprint, local.value().front[i].fingerprint);
  }
  EXPECT_DOUBLE_EQ(remote.value().front_hypervolume, local.value().front_hypervolume);

  // The same connection still serves scalar traffic with pre-v4 responses:
  // no front, and identity bytes equal to the owning node's compile_sync.
  serve::CompileRequest scalar = request;
  scalar.weights = {};
  auto remote_scalar = client.compile(scalar);
  ASSERT_TRUE(remote_scalar.is_ok()) << remote_scalar.message();
  EXPECT_TRUE(remote_scalar.value().front.empty());
  auto local_scalar = harness.node->service().compile_sync(scalar);
  ASSERT_TRUE(local_scalar.is_ok());
  EXPECT_EQ(net::response_identity_bytes(remote_scalar.value()),
            net::response_identity_bytes(local_scalar.value()));
}

TEST(RemoteServe, PipelinedBatchMatchesSyncReference) {
  auto sha = progen::build_chstone_like("sha");
  auto gsm = progen::build_chstone_like("gsm");
  auto qsort = progen::build_chstone_like("qsort");
  const std::vector<const ir::Module*> modules = {sha.get(), gsm.get(), qsort.get()};
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(sha.get(), 31));

  std::vector<serve::CompileRequest> requests;
  for (int i = 0; i < 6; ++i) {
    serve::CompileRequest request;
    request.module = modules[static_cast<std::size_t>(i) % modules.size()];
    request.model = "agent";
    request.objective = i % 2 == 0 ? serve::Objective::kCycles : serve::Objective::kFixedBudget;
    request.pass_budget = 2 + i % 2;
    request.beam_width = 1 + i % 2;
    requests.push_back(request);
  }
  std::vector<std::string> expected;
  for (const auto& request : requests) {
    auto local = harness.node->service().compile_sync(request);
    ASSERT_TRUE(local.is_ok()) << local.message();
    expected.push_back(net::response_identity_bytes(local.value()));
  }

  serve::RemoteCompileClient client({harness.node->endpoint()});
  auto results = client.compile_batch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].is_ok()) << "request " << i << ": " << results[i].message();
    EXPECT_EQ(net::response_identity_bytes(results[i].value()), expected[i]) << "request " << i;
  }
  // The whole pipeline rode one connection.
  EXPECT_EQ(client.stats().connects, 1u);
}

TEST(RemoteServe, InFlightCapThrottlesPipelinesWithoutLosingFrames) {
  // A cap far below the pipeline depth forces the server to pause EPOLLIN
  // repeatedly and resume from frames already buffered in inbuf — the whole
  // batch is written before any response is read, so every frame past the
  // cap arrives while the connection is throttled. Nothing may be lost,
  // reordered to the wrong id, or answered differently.
  auto sha = progen::build_chstone_like("sha");
  auto gsm = progen::build_chstone_like("gsm");
  net::ServeNodeConfig config;
  config.max_in_flight_per_connection = 2;
  config.net_workers = 2;
  NodeHarness harness(config);
  harness.registry->publish("agent", make_test_artifact(sha.get(), 17));

  std::vector<serve::CompileRequest> requests;
  for (int i = 0; i < 12; ++i) {
    serve::CompileRequest request;
    request.module = i % 2 == 0 ? sha.get() : gsm.get();
    request.model = "agent";
    request.objective = serve::Objective::kFixedBudget;
    request.pass_budget = 1 + i % 3;
    requests.push_back(request);
  }
  std::vector<std::string> expected;
  for (const auto& request : requests) {
    auto local = harness.node->service().compile_sync(request);
    ASSERT_TRUE(local.is_ok());
    expected.push_back(net::response_identity_bytes(local.value()));
  }

  serve::RemoteCompileClient client({harness.node->endpoint()});
  auto results = client.compile_batch(requests);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].is_ok()) << "request " << i << ": " << results[i].message();
    EXPECT_EQ(net::response_identity_bytes(results[i].value()), expected[i]) << "request " << i;
  }
}

TEST(RemoteServe, PublishReplicatesBitExactAcrossNodes) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness a;
  NodeHarness b;
  a.node->add_peer(b.node->endpoint());

  serve::RemoteCompileClient client({a.node->endpoint(), b.node->endpoint()});
  auto key = client.publish(0, "agent", make_test_artifact(sha.get(), 5));
  ASSERT_TRUE(key.is_ok()) << key.message();
  EXPECT_EQ(key.value().name, "agent");
  EXPECT_EQ(key.value().version, 1u);
  EXPECT_EQ(key.value().peer_failures, 0u);

  // Registries converged on bit-identical blobs (the round-trip check the
  // artifact format already guarantees makes this equality meaningful).
  const auto blob_a = a.registry->export_model("agent", 1);
  const auto blob_b = b.registry->export_model("agent", 1);
  ASSERT_TRUE(blob_a.is_ok());
  ASSERT_TRUE(blob_b.is_ok()) << "replication did not reach node B";
  EXPECT_EQ(blob_a.value(), blob_b.value());

  // The wire-level view agrees.
  auto list_a = client.list_models(0);
  auto list_b = client.list_models(1);
  ASSERT_TRUE(list_a.is_ok() && list_b.is_ok());
  ASSERT_EQ(list_a.value().size(), 1u);
  ASSERT_EQ(list_b.value().size(), 1u);
  EXPECT_EQ(list_a.value()[0].blob_checksum, list_b.value()[0].blob_checksum);
  EXPECT_EQ(list_a.value()[0].version, list_b.value()[0].version);

  // Both nodes now serve the same model: responses are byte-identical.
  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  auto via_a = a.node->service().compile_sync(request);
  auto via_b = b.node->service().compile_sync(request);
  ASSERT_TRUE(via_a.is_ok() && via_b.is_ok());
  EXPECT_EQ(net::response_identity_bytes(via_a.value()),
            net::response_identity_bytes(via_b.value()));
}

TEST(RemoteServe, UnknownModelIsARemoteErrorAndConnectionIsReused) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(sha.get(), 3));
  serve::RemoteCompileClient client({harness.node->endpoint()});

  serve::CompileRequest bogus;
  bogus.module = sha.get();
  bogus.model = "nope";
  auto error = client.compile(bogus);
  EXPECT_FALSE(error.is_ok());
  EXPECT_NE(error.message().find("unknown model"), std::string::npos) << error.message();

  serve::CompileRequest good = bogus;
  good.model = "agent";
  auto response = client.compile(good);
  ASSERT_TRUE(response.is_ok()) << response.message();
  // The application error did not poison the transport: one connection total.
  EXPECT_EQ(client.stats().connects, 1u);
}

TEST(RemoteServe, HostileDecodeBoundsFailCleanAndKeepTheConnection) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(sha.get(), 3));
  serve::RemoteCompileClient client({harness.node->endpoint()});

  // A fixed budget of 2^31 steps is refused at the door, not decoded.
  serve::CompileRequest budget;
  budget.module = sha.get();
  budget.model = "agent";
  budget.objective = serve::Objective::kFixedBudget;
  budget.pass_budget = std::numeric_limits<std::int32_t>::max();
  auto refused = client.compile(budget);
  EXPECT_FALSE(refused.is_ok());
  EXPECT_NE(refused.message().find("pass_budget"), std::string::npos) << refused.message();

  // A beam of 2^31 is served, cut to the decode core's bound.
  serve::CompileRequest wide;
  wide.module = sha.get();
  wide.model = "agent";
  wide.beam_width = std::numeric_limits<std::int32_t>::max();
  auto served = client.compile(wide);
  ASSERT_TRUE(served.is_ok()) << served.message();
  EXPECT_LE(served.value().provenance.beams_evaluated, 64);

  // Neither request poisoned the transport: one connection total.
  serve::CompileRequest good = wide;
  good.beam_width = 1;
  ASSERT_TRUE(client.compile(good).is_ok());
  EXPECT_EQ(client.stats().connects, 1u);
}

TEST(RemoteServe, ClientDeadlineExpiresCleanly) {
  // A listener that accepts nothing: connects succeed (backlog), requests
  // vanish. The client must fail with a deadline error, not hang.
  auto listener = net::TcpListener::bind_loopback(0);
  ASSERT_TRUE(listener.is_ok());

  auto sha = progen::build_chstone_like("sha");
  serve::RemoteClientConfig config;
  config.request_deadline = 100ms;
  serve::RemoteCompileClient client({{"127.0.0.1", listener.value().port()}}, config);

  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  const auto t0 = std::chrono::steady_clock::now();
  auto response = client.compile(request);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(response.is_ok());
  EXPECT_NE(response.message().find("deadline exceeded"), std::string::npos)
      << response.message();
  EXPECT_LT(elapsed, 5s);  // bounded, not wedged
  EXPECT_EQ(client.stats().timeouts, 1u);
}

TEST(RemoteServe, SaturatedNodeBouncesTypedOverloadedAcrossTheWire) {
  auto sha = progen::build_chstone_like("sha");
  // Queue capacity zero: every request sheds at admission — a pure bounce
  // node, deterministic with no worker race.
  net::ServeNodeConfig config;
  config.compile.queue_capacity = 0;
  NodeHarness harness(config);
  serve::RemoteCompileClient client({harness.node->endpoint()});

  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  auto response = client.compile(request);
  ASSERT_FALSE(response.is_ok());
  // The bounce crossed the wire as a typed kOverloaded reply carrying our
  // request id (the pipelined client matched it back to this call) and
  // surfaces as the typed "overloaded: " status — never a hang.
  EXPECT_TRUE(serve::is_overloaded(response.status())) << response.message();
  EXPECT_EQ(client.stats().overloaded, 1u);
  EXPECT_EQ(harness.node->stats().counter("serve_shed_overload"), 1u);
  // One typed bounce suppresses the endpoint — the node said so itself.
  EXPECT_TRUE(client.suppressed(0));

  // The bounce did not poison the transport: a retry (which falls back to
  // the primary — there is nowhere else to route) reuses the connection.
  auto again = client.compile(request);
  ASSERT_FALSE(again.is_ok());
  EXPECT_TRUE(serve::is_overloaded(again.status()));
  EXPECT_EQ(client.stats().connects, 1u);
}

TEST(RemoteServe, RepeatedFailuresSuppressAnEndpointAndRerouteItsKeys) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness live;
  live.registry->publish("agent", make_test_artifact(sha.get(), 3));

  // A port nobody listens on: connects fail fast with ECONNREFUSED.
  std::uint16_t dead_port = 0;
  {
    auto listener = net::TcpListener::bind_loopback(0);
    ASSERT_TRUE(listener.is_ok());
    dead_port = listener.value().port();
  }

  serve::RemoteClientConfig config;
  config.backoff_after_failures = 2;
  config.connect_timeout = 500ms;
  serve::RemoteCompileClient client({live.node->endpoint(), {"127.0.0.1", dead_port}}, config);

  // Find a module whose ring primary is the dead node.
  std::unique_ptr<ir::Module> doomed;
  for (std::uint64_t seed = 1; seed <= 32 && doomed == nullptr; ++seed) {
    auto m = progen::generate_filtered_program(seed * 104'729);
    if (client.route(*m) == 1) doomed = std::move(m);
  }
  ASSERT_NE(doomed, nullptr) << "no module routed to node 1 in 32 tries";

  serve::CompileRequest request;
  request.module = doomed.get();
  request.model = "agent";

  // Failures accumulate against the endpoint until the backoff suppresses
  // it; until then the request keeps failing at its primary.
  for (std::size_t attempt = 0; attempt < config.backoff_after_failures; ++attempt) {
    EXPECT_FALSE(client.compile(request).is_ok());
  }
  EXPECT_TRUE(client.suppressed(1)) << "failure accounting never tripped the backoff";

  // Ring semantics stay pure — route() still names the primary — but the
  // compile path walks past the suppressed endpoint and the request now
  // lands on the live node.
  EXPECT_EQ(client.route(*doomed), 1u);
  auto rerouted = client.compile(request);
  ASSERT_TRUE(rerouted.is_ok()) << rerouted.message();
  EXPECT_GE(client.stats().rerouted, 1u);

  // A membership verdict readmits it wholesale: mark_alive clears the
  // accounting and the ring walk stops skipping.
  client.mark_alive({"127.0.0.1", dead_port});
  EXPECT_FALSE(client.suppressed(1));
}

TEST(RemoteServe, ConfirmedDeadEndpointIsDroppedUntilMarkedAlive) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness live;
  live.registry->publish("agent", make_test_artifact(sha.get(), 3));
  NodeHarness other;
  other.registry->publish("agent", make_test_artifact(sha.get(), 3));

  serve::RemoteCompileClient client({live.node->endpoint(), other.node->endpoint()});

  // The membership feed says node 1 is confirmed dead: its ring keys must
  // rebalance immediately — no failure accounting, no backoff window.
  client.mark_dead(other.node->endpoint());
  EXPECT_TRUE(client.suppressed(1));
  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  for (int i = 0; i < 4; ++i) {
    auto response = client.compile(request);
    EXPECT_TRUE(response.is_ok()) << response.message();
  }
  // Only a membership verdict readmits: mark_alive restores full weight.
  client.mark_alive(other.node->endpoint());
  EXPECT_FALSE(client.suppressed(1));
  auto response = client.compile(request);
  EXPECT_TRUE(response.is_ok()) << response.message();
}

TEST(RemoteServe, ServerSurvivesGarbageAndAbandonedConnections) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(sha.get(), 9));

  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";

  // 1. Pure garbage: the server answers with a protocol error frame and
  //    drops the connection.
  {
    auto raw = net::TcpStream::connect("127.0.0.1", harness.node->port(), 2000ms);
    ASSERT_TRUE(raw.is_ok());
    const char garbage[] = "definitely not an AutoPhase frame";
    ASSERT_TRUE(raw.value()
                    .write_all(garbage, sizeof(garbage), net::deadline_in(2000ms))
                    .is_ok());
    auto reply = net::read_frame(raw.value(), net::deadline_in(5000ms));
    ASSERT_TRUE(reply.is_ok()) << reply.message();
    EXPECT_EQ(reply.value().type, net::MsgType::kError);
    EXPECT_FALSE(net::decode_status_reply(reply.value().payload).is_ok());
  }

  // 2. A checksum-corrupted frame is equally fatal for that connection.
  {
    auto raw = net::TcpStream::connect("127.0.0.1", harness.node->port(), 2000ms);
    ASSERT_TRUE(raw.is_ok());
    std::string bytes = net::encode_frame(ping_frame(5, "ok"));
    bytes[bytes.size() - 1] ^= 0x11;  // checksum trailer
    ASSERT_TRUE(
        raw.value().write_all(bytes.data(), bytes.size(), net::deadline_in(2000ms)).is_ok());
    auto reply = net::read_frame(raw.value(), net::deadline_in(5000ms));
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(reply.value().type, net::MsgType::kError);
  }

  // 3. A client that sends a real request and hangs up before the answer:
  //    the server's worker writes into a dead socket and must shrug.
  {
    auto raw = net::TcpStream::connect("127.0.0.1", harness.node->port(), 2000ms);
    ASSERT_TRUE(raw.is_ok());
    net::Frame frame;
    frame.type = net::MsgType::kCompile;
    frame.request_id = 77;
    frame.payload = net::encode_compile_request(request);
    ASSERT_TRUE(net::write_frame(raw.value(), frame, net::deadline_in(2000ms)).is_ok());
    raw.value().shutdown();  // gone before the response exists
  }
  // 4. A half-frame then silence (the abandoned connection just idles).
  {
    auto raw = net::TcpStream::connect("127.0.0.1", harness.node->port(), 2000ms);
    ASSERT_TRUE(raw.is_ok());
    const std::string bytes = net::encode_frame(ping_frame(6, "partial"));
    ASSERT_TRUE(raw.value()
                    .write_all(bytes.data(), bytes.size() / 2, net::deadline_in(2000ms))
                    .is_ok());
  }

  // After all of that, the worker pool still serves: repeated full requests
  // succeed with the usual bit-exact answer.
  serve::RemoteCompileClient client({harness.node->endpoint()});
  auto local = harness.node->service().compile_sync(request);
  ASSERT_TRUE(local.is_ok());
  for (int i = 0; i < 3; ++i) {
    auto response = client.compile(request);
    ASSERT_TRUE(response.is_ok()) << "attempt " << i << ": " << response.message();
    EXPECT_EQ(net::response_identity_bytes(response.value()),
              net::response_identity_bytes(local.value()));
  }
}

TEST(RemoteServe, HostileLearnVerbsFailCleanAndKeepTheConnection) {
  NodeHarness harness;
  auto raw = net::TcpStream::connect("127.0.0.1", harness.node->port(), 2000ms);
  ASSERT_TRUE(raw.is_ok());

  // Garbage payloads on the two learn-loop verbs: each gets a reply of the
  // request's own type whose payload decodes to an error status — the same
  // contract kCompile uses — with the request id echoed, and the connection
  // stays usable. A broken collector or controller must not take the serving
  // socket with it.
  std::uint64_t request_id = 800;
  for (const net::MsgType type : {net::MsgType::kProvenance, net::MsgType::kCanary}) {
    for (const std::string payload :
         {std::string(), std::string("shrug"), std::string(64, '\xff')}) {
      net::Frame frame;
      frame.type = type;
      frame.request_id = ++request_id;
      frame.payload = payload;
      ASSERT_TRUE(net::write_frame(raw.value(), frame, net::deadline_in(2000ms)).is_ok());
      auto reply = net::read_frame(raw.value(), net::deadline_in(5000ms));
      ASSERT_TRUE(reply.is_ok()) << reply.message();
      EXPECT_EQ(reply.value().type, type);
      EXPECT_EQ(reply.value().request_id, request_id);
      if (type == net::MsgType::kProvenance) {
        EXPECT_FALSE(net::decode_provenance_reply(reply.value().payload).is_ok());
      } else {
        EXPECT_FALSE(net::decode_status_reply(reply.value().payload).is_ok());
      }
    }
  }

  // A drain asking for zero records is a semantic error, same contract.
  {
    net::Frame frame;
    frame.type = net::MsgType::kProvenance;
    frame.request_id = ++request_id;
    frame.payload = net::encode_provenance_request({/*max_records=*/0});
    ASSERT_TRUE(net::write_frame(raw.value(), frame, net::deadline_in(2000ms)).is_ok());
    auto reply = net::read_frame(raw.value(), net::deadline_in(5000ms));
    ASSERT_TRUE(reply.is_ok());
    EXPECT_EQ(reply.value().type, net::MsgType::kProvenance);
    auto decoded = net::decode_provenance_reply(reply.value().payload);
    EXPECT_FALSE(decoded.is_ok());
    EXPECT_NE(decoded.status().message().find("zero"), std::string::npos)
        << decoded.status().message();
  }

  // An unknown verb — a frame from a *newer* peer — is a clean typed error
  // with the id echoed, not a dropped connection: old nodes answer "I don't
  // speak that" instead of wedging a mixed-version fleet.
  {
    net::Frame frame;
    frame.type = static_cast<net::MsgType>(200);
    frame.request_id = ++request_id;
    frame.payload = "verb from the future";
    ASSERT_TRUE(net::write_frame(raw.value(), frame, net::deadline_in(2000ms)).is_ok());
    auto reply = net::read_frame(raw.value(), net::deadline_in(5000ms));
    ASSERT_TRUE(reply.is_ok()) << reply.message();
    EXPECT_EQ(reply.value().type, net::MsgType::kError);
    EXPECT_EQ(reply.value().request_id, request_id);
    const Status decoded = net::decode_status_reply(reply.value().payload);
    EXPECT_FALSE(decoded.is_ok());
    EXPECT_NE(decoded.message().find("unknown"), std::string::npos) << decoded.message();
  }

  // Same socket, real verb: still alive.
  net::Frame frame = ping_frame(++request_id, "still-there");
  ASSERT_TRUE(net::write_frame(raw.value(), frame, net::deadline_in(2000ms)).is_ok());
  auto reply = net::read_frame(raw.value(), net::deadline_in(5000ms));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().type, net::MsgType::kPing);
  EXPECT_EQ(reply.value().request_id, request_id);
}

TEST(RemoteServe, ConsistentHashRoutingIsStableAndCacheAffine) {
  auto sha = progen::build_chstone_like("sha");
  auto gsm = progen::build_chstone_like("gsm");
  NodeHarness a;
  NodeHarness b;
  const std::vector<net::RemoteEndpoint> endpoints = {a.node->endpoint(), b.node->endpoint()};

  serve::RemoteCompileClient first(endpoints);
  serve::RemoteCompileClient second(endpoints);
  for (const ir::Module* m : {sha.get(), gsm.get()}) {
    const std::size_t node = first.route(*m);
    EXPECT_LT(node, endpoints.size());
    // Identical endpoint lists route identically — affinity does not depend
    // on which client instance (or process) computed it.
    EXPECT_EQ(second.route(*m), node);
    // The fingerprint is the print-based module fingerprint, so a clone of
    // the program lands on the same node's warm cache.
    EXPECT_EQ(first.route_fingerprint(ir::module_fingerprint(*m)), node);
  }

  // Requests actually land where route() says: publish everywhere, serve one
  // module, and check the owning node's counters moved.
  a.node->add_peer(b.node->endpoint());
  serve::RemoteCompileClient client(endpoints);
  auto key = client.publish(0, "agent", make_test_artifact(sha.get(), 13));
  ASSERT_TRUE(key.is_ok()) << key.message();

  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  const std::size_t owner = client.route(*sha);
  auto response = client.compile(request);
  ASSERT_TRUE(response.is_ok()) << response.message();

  auto owner_stats = client.node_stats(owner);
  auto other_stats = client.node_stats(1 - owner);
  ASSERT_TRUE(owner_stats.is_ok() && other_stats.is_ok());
  EXPECT_EQ(owner_stats.value().counter("serve_requests_completed"), 1u);
  EXPECT_EQ(other_stats.value().counter("serve_requests_completed"), 0u);
  // Its EvalService did the work.
  EXPECT_GT(gauge_of(owner_stats.value(), "eval_cache_misses"), 0.0);
}

TEST(RemoteServe, PublishSurvivesUnreachablePeerWithVersionIntact) {
  // A dead peer must not erase the fact that the owning node assigned a
  // version: the reply is success + peer_failures, never a lost ModelKey.
  auto sha = progen::build_chstone_like("sha");
  net::ServeNodeConfig config;
  config.peer_timeout = std::chrono::milliseconds(200);
  NodeHarness harness(config);
  // A peer that accepts TCP but never speaks the protocol (a bound listener
  // nobody drains) — replication to it times out.
  auto dead_peer = net::TcpListener::bind_loopback(0);
  ASSERT_TRUE(dead_peer.is_ok());
  harness.node->add_peer({"127.0.0.1", dead_peer.value().port()});

  serve::RemoteCompileClient client({harness.node->endpoint()});
  auto reply = client.publish(0, "agent", make_test_artifact(sha.get(), 23));
  ASSERT_TRUE(reply.is_ok()) << reply.message();
  EXPECT_EQ(reply.value().version, 1u);
  EXPECT_EQ(reply.value().peer_failures, 1u);
  EXPECT_NE(harness.registry->get("agent"), nullptr);  // durably published
}

TEST(RemoteServe, StalePooledConnectionIsRetriedOnce) {
  auto sha = progen::build_chstone_like("sha");
  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";

  auto first = std::make_unique<NodeHarness>();
  first->registry->publish("agent", make_test_artifact(sha.get(), 29));
  const std::uint16_t port = first->node->port();

  serve::RemoteCompileClient client({{"127.0.0.1", port}});
  auto before = client.compile(request);
  ASSERT_TRUE(before.is_ok()) << before.message();

  // Node restarts on the same port; the client's pooled connection is dead.
  first.reset();
  net::ServeNodeConfig config;
  config.port = port;
  NodeHarness second(config);
  second.registry->publish("agent", make_test_artifact(sha.get(), 29));

  auto after = client.compile(request);
  ASSERT_TRUE(after.is_ok()) << after.message();  // retried on a fresh connection
  EXPECT_EQ(after.value().provenance.sequence, before.value().provenance.sequence);
  EXPECT_GE(client.stats().connects, 2u);
}

TEST(RemoteServe, NodeShutdownRejectsLateClients) {
  auto sha = progen::build_chstone_like("sha");
  auto harness = std::make_unique<NodeHarness>();
  harness->registry->publish("agent", make_test_artifact(sha.get(), 4));
  const net::RemoteEndpoint endpoint = harness->node->endpoint();

  serve::RemoteCompileClient client({endpoint});
  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  ASSERT_TRUE(client.compile(request).is_ok());

  harness->node->shutdown();
  serve::RemoteClientConfig config;
  config.request_deadline = 500ms;
  config.connect_timeout = 500ms;
  serve::RemoteCompileClient late({endpoint}, config);
  EXPECT_FALSE(late.compile(request).is_ok());  // refused or reset, never a hang
}

// ---------------------------------------------------------------------------
// Node stats v7: the kStats payload is the node's registry snapshot
// ---------------------------------------------------------------------------

/// One of every instrument shape a kStats payload carries: plain and
/// labelled counters, settable and callback gauges (one negative), and
/// sparse histograms, unlabelled and labelled.
obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsRegistry registry;
  registry.counter("serve_requests_completed").inc(10);
  const auto model_requests = [&registry](const char* model, const char* version,
                                          const char* outcome) -> obs::Counter& {
    return registry.counter("serve_model_requests",
                            {{"model", model}, {"version", version}, {"outcome", outcome}});
  };
  model_requests("agent", "1", "completed").inc(6);
  model_requests("agent", "1", "failed").inc(1);
  model_requests("agent", "2", "completed").inc(4);
  model_requests("ghost", "7", "failed").inc(1);
  const std::array<std::uint64_t, serve::kNumObjectives> objectives = {7, 2, 1};
  for (std::size_t o = 0; o < serve::kNumObjectives; ++o) {
    registry
        .counter("serve_objective_completed",
                 {{"objective", serve::objective_name(static_cast<serve::Objective>(o))}})
        .inc(objectives[o]);
  }
  registry.gauge("serve_queue_depth_max").set(3);
  registry.gauge_fn("gossip_last_sync_age_ms", {}, [] { return -1.0; });  // never synced
  registry.gauge_fn("eval_cache_hits", {}, [] { return 4.0; });
  for (const double v : {0.5, 3.5, 1.0, 2.0}) registry.histogram("serve_latency_ms").record(v);
  registry.histogram("serve_cycle_error_pct", {{"model", "agent"}, {"version", "1"}}).record(12.5);
  return registry.snapshot();
}

void expect_same_snapshot(const obs::MetricsSnapshot& got, const obs::MetricsSnapshot& want) {
  EXPECT_EQ(got.counters, want.counters);
  ASSERT_EQ(got.gauges.size(), want.gauges.size());
  for (const auto& [key, g] : want.gauges) {
    ASSERT_EQ(got.gauges.count(key), 1u) << key.name;
    EXPECT_DOUBLE_EQ(got.gauges.at(key).sum, g.sum) << key.name;
    EXPECT_DOUBLE_EQ(got.gauges.at(key).min, g.min) << key.name;
    EXPECT_DOUBLE_EQ(got.gauges.at(key).max, g.max) << key.name;
  }
  ASSERT_EQ(got.histograms.size(), want.histograms.size());
  for (const auto& [key, h] : want.histograms) {
    ASSERT_EQ(got.histograms.count(key), 1u) << key.name;
    const obs::HistogramSnapshot& d = got.histograms.at(key);
    EXPECT_EQ(d.spec, h.spec);
    EXPECT_EQ(d.counts, h.counts);
    EXPECT_EQ(d.count, h.count);
    EXPECT_DOUBLE_EQ(d.sum, h.sum);
    EXPECT_DOUBLE_EQ(d.min, h.min);
    EXPECT_DOUBLE_EQ(d.max, h.max);
  }
}

TEST(WireNodeStats, RegistrySnapshotRoundTripsEveryInstrument) {
  obs::MetricsSnapshot stats = sample_snapshot();
  // A merged snapshot's gauge keeps a spread (sum, min, max all differ); it
  // crosses the wire exactly too.
  stats.gauges[obs::MetricKey{"members_alive", {}}] = obs::GaugeSummary{5.0, 1.0, 3.0};

  auto decoded = net::decode_metrics_snapshot(net::encode_metrics_snapshot(stats));
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  const obs::MetricsSnapshot& d = decoded.value();
  expect_same_snapshot(d, stats);
  // The never-synced -1 survives the codec.
  ASSERT_NE(d.gauge("gossip_last_sync_age_ms"), nullptr);
  EXPECT_EQ(d.gauge("gossip_last_sync_age_ms")->sum, -1.0);
  // Labelled families decode into the same typed breakdowns a node reports.
  const auto per_model = serve::per_model_breakdown(d);
  ASSERT_EQ(per_model.size(), 3u);
  EXPECT_EQ(per_model[0].model, "agent");
  EXPECT_EQ(per_model[0].completed, 6u);
  EXPECT_EQ(per_model[0].failed, 1u);
  EXPECT_EQ(per_model[1].version, 2u);
  EXPECT_EQ(per_model[1].completed, 4u);
  EXPECT_EQ(per_model[2].model, "ghost");
  EXPECT_EQ(per_model[2].failed, 1u);
  EXPECT_EQ(serve::objective_breakdown(d),
            (std::array<std::uint64_t, 3>{7, 2, 1}));
  // Histograms cross sparsely: a 96-bucket histogram with four samples costs
  // far less than its dense 96 x 8 bytes.
  obs::MetricsSnapshot one;
  one.histograms[obs::MetricKey{"serve_latency_ms", {}}] =
      stats.histograms.at(obs::MetricKey{"serve_latency_ms", {}});
  EXPECT_LT(net::encode_metrics_snapshot(one).size(), 96u * 8u / 2u);
}

TEST(WireNodeStats, WrongStatsVersionAndCorruptCountsAreRejected) {
  const std::string bytes = net::encode_metrics_snapshot(sample_snapshot());
  // Byte 0 is the status prefix; bytes 1..5 are the stats version.
  std::string newer = bytes;
  newer[1] = 99;
  auto rejected = net::decode_metrics_snapshot(newer);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.message().find("stats version"), std::string::npos);
  // Truncation at every byte is an error, never a misparse.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(net::decode_metrics_snapshot(std::string_view(bytes).substr(0, cut)).is_ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(net::decode_metrics_snapshot(bytes + '\0').is_ok());  // trailing bytes

  // Counts that lie about their size are refused by the guard, before they
  // can size an allocation (a 4G-entry reserve would abort the test).
  const auto payload = [](const auto& body) {
    serve::ByteWriter w;
    w.u8(1);
    w.u32(net::kStatsPayloadVersion);
    body(w);
    return w.take();
  };
  const std::string huge_counters = payload([](serve::ByteWriter& w) { w.u32(~0u); });
  EXPECT_NE(net::decode_metrics_snapshot(huge_counters).message().find("counter count"),
            std::string::npos);
  const std::string huge_gauges = payload([](serve::ByteWriter& w) {
    w.u32(0);
    w.u32(~0u);
  });
  EXPECT_NE(net::decode_metrics_snapshot(huge_gauges).message().find("gauge count"),
            std::string::npos);
  const std::string huge_histograms = payload([](serve::ByteWriter& w) {
    w.u32(0);
    w.u32(0);
    w.u32(~0u);
  });
  EXPECT_NE(net::decode_metrics_snapshot(huge_histograms).message().find("histogram count"),
            std::string::npos);
  const std::string huge_labels = payload([](serve::ByteWriter& w) {
    w.u32(1);
    w.str("requests");
    w.u32(~0u);  // label count
    w.u64(1);
    w.u32(0);
    w.u32(0);
  });
  EXPECT_FALSE(net::decode_metrics_snapshot(huge_labels).is_ok());
  const std::string huge_buckets = payload([](serve::ByteWriter& w) {
    w.u32(0);
    w.u32(0);
    w.u32(1);
    w.str("serve_latency_ms");
    w.u32(0);
    const obs::HistogramSpec spec{};
    w.f64(spec.min);
    w.f64(spec.growth);
    w.u32(spec.buckets);
    w.u64(1);
    w.f64(1.0);
    w.f64(1.0);
    w.f64(1.0);
    w.u32(~0u);  // non-zero bucket count
  });
  EXPECT_FALSE(net::decode_metrics_snapshot(huge_buckets).is_ok());
  // The same key twice would silently drop one value; it is refused.
  const std::string duplicate = payload([](serve::ByteWriter& w) {
    w.u32(2);
    for (int i = 0; i < 2; ++i) {
      w.str("requests");
      w.u32(0);
      w.u64(1);
    }
    w.u32(0);
    w.u32(0);
  });
  EXPECT_NE(net::decode_metrics_snapshot(duplicate).message().find("duplicate"),
            std::string::npos);
}

TEST(WireNodeStats, ForeignHistogramSpecIsRejectedAndNeverSummed) {
  // Node A: 100 requests at 10 ms in the shared layout. Node B: 100 at
  // 1000 ms in a 200-bucket layout starting at 1. Summed index by index, B's
  // samples would land in A's low buckets and the fleet p95 would read 10 ms.
  obs::HistogramSpec foreign;
  foreign.buckets = 200;
  foreign.min = 1.0;
  obs::Histogram shared_hist;
  obs::Histogram foreign_hist(foreign);
  for (int i = 0; i < 100; ++i) {
    shared_hist.record(10.0);
    foreign_hist.record(1000.0);
  }
  const obs::MetricKey latency_key{"serve_latency_ms", {}};
  obs::MetricsSnapshot a;
  a.histograms[latency_key] = shared_hist.snapshot();
  obs::MetricsSnapshot b;
  b.histograms[latency_key] = foreign_hist.snapshot();
  EXPECT_TRUE(net::decode_metrics_snapshot(net::encode_metrics_snapshot(a)).is_ok());
  auto rejected = net::decode_metrics_snapshot(net::encode_metrics_snapshot(b));
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.message().find("corrupt histogram 'serve_latency_ms'"), std::string::npos)
      << rejected.message();

  // Through a live monitor: the node with the foreign histogram is reported
  // with the error, and none of its instruments reach the fleet view.
  NodeHarness good;
  NodeHarness bad;
  for (int i = 0; i < 100; ++i) {
    good.node->service().metrics_registry()->histogram("serve_latency_ms").record(10.0);
    bad.node->service().metrics_registry()->histogram("foreign_ms", {}, foreign).record(1000.0);
  }
  bad.node->service().metrics_registry()->counter("serve_requests_completed").inc(5);
  auto client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{good.node->endpoint(), bad.node->endpoint()});
  serve::FleetMonitor monitor(client);
  const serve::FleetStats fleet = monitor.poll();
  EXPECT_EQ(fleet.reachable, 1u);
  EXPECT_TRUE(fleet.per_node[0].reachable);
  EXPECT_FALSE(fleet.per_node[1].reachable);
  EXPECT_NE(fleet.per_node[1].error.find("corrupt histogram 'foreign_ms'"), std::string::npos)
      << fleet.per_node[1].error;
  EXPECT_EQ(fleet.completed, 0u);
  EXPECT_EQ(fleet.latency_samples, 100u);
  EXPECT_DOUBLE_EQ(fleet.latency.p95_ms, 10.0);
  EXPECT_EQ(fleet.metrics.histograms.count(obs::MetricKey{"foreign_ms", {}}), 0u);
}

TEST(WireNodeStats, AnInstrumentTheMonitorNeverHeardOfIsSummedWithoutAWireChange) {
  // Nothing in the wire codec or FleetMonitor names these instruments: the
  // registry snapshot carries them, and the generic merge sums them.
  NodeHarness a;
  NodeHarness b;
  const obs::MetricKey events{"brand_new_events", {{"kind", "probe"}}};
  a.node->service().metrics_registry()->counter(events.name, events.labels).inc(3);
  b.node->service().metrics_registry()->counter(events.name, events.labels).inc(4);
  a.node->service().metrics_registry()->gauge("brand_new_level").set(1.5);
  b.node->service().metrics_registry()->gauge("brand_new_level").set(2.5);
  auto client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{a.node->endpoint(), b.node->endpoint()});
  serve::FleetMonitor monitor(client);
  const serve::FleetStats fleet = monitor.poll();
  ASSERT_EQ(fleet.reachable, 2u);
  ASSERT_EQ(fleet.metrics.counters.count(events), 1u);
  EXPECT_EQ(fleet.metrics.counters.at(events), 7u);
  const obs::GaugeSummary* level = fleet.metrics.gauge("brand_new_level");
  ASSERT_NE(level, nullptr);
  EXPECT_DOUBLE_EQ(level->sum, 4.0);
  EXPECT_DOUBLE_EQ(level->min, 1.5);
  EXPECT_DOUBLE_EQ(level->max, 2.5);
}

TEST(WireNodeStats, ServedStatsCarryPerModelVersionCounts) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(sha.get(), 3));
  harness.registry->publish("agent", make_test_artifact(sha.get(), 4));
  serve::RemoteCompileClient client({harness.node->endpoint()});

  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  request.version = 1;
  ASSERT_TRUE(client.compile(request).is_ok());
  request.version = 0;  // latest == v2
  ASSERT_TRUE(client.compile(request).is_ok());
  ASSERT_TRUE(client.compile(request).is_ok());

  auto stats = client.node_stats(0);
  ASSERT_TRUE(stats.is_ok()) << stats.message();
  const obs::MetricsSnapshot& s = stats.value();
  EXPECT_EQ(s.counter("serve_requests_completed"), 3u);
  ASSERT_NE(s.histogram("serve_latency_ms"), nullptr);
  EXPECT_EQ(s.histogram("serve_latency_ms")->count, 3u);
  const auto per_model = serve::per_model_breakdown(s);
  ASSERT_EQ(per_model.size(), 2u);
  EXPECT_EQ(per_model[0].version, 1u);
  EXPECT_EQ(per_model[0].completed, 1u);
  EXPECT_EQ(per_model[1].version, 2u);
  EXPECT_EQ(per_model[1].completed, 2u);
  EXPECT_EQ(serve::objective_breakdown(s)[0], 3u);
}

// ---------------------------------------------------------------------------
// End-to-end tracing + kMetrics scrape
// ---------------------------------------------------------------------------

TEST(WireTracing, RemoteCompileThroughAFleetStitchesOneTrace) {
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  auto sha = progen::build_chstone_like("sha");

  std::vector<NodeHarness> fleet(3);
  std::vector<net::RemoteEndpoint> endpoints;
  for (NodeHarness& h : fleet) {
    h.registry->publish("agent", make_test_artifact(sha.get(), 3));
    endpoints.push_back(h.node->endpoint());
  }
  serve::RemoteCompileClient client(endpoints);
  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  auto response = client.compile(request);
  ASSERT_TRUE(response.is_ok()) << response.message();
  obs::tracer().set_enabled(false);

  // The client's root span and the owning node's queue/serve spans must
  // stitch: one trace id crossed the wire, and the server's request span
  // parents under the client's remote_compile span.
  const std::vector<obs::SpanRecord> spans = obs::tracer().snapshot();
  const obs::SpanRecord* client_span = nullptr;
  const obs::SpanRecord* request_span = nullptr;
  const obs::SpanRecord* serve_span = nullptr;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "remote_compile") client_span = &s;
    if (s.name == "request") request_span = &s;
    if (s.name == "serve") serve_span = &s;
  }
  ASSERT_NE(client_span, nullptr);
  ASSERT_NE(request_span, nullptr);
  ASSERT_NE(serve_span, nullptr);
  EXPECT_EQ(request_span->trace, client_span->trace);
  EXPECT_EQ(serve_span->trace, client_span->trace);
  EXPECT_EQ(request_span->parent, client_span->span);

  // And the whole thing exports as Chrome trace-event JSON (Perfetto-ready).
  const std::size_t owner = client.route(*sha);
  const std::string path = ::testing::TempDir() + "/stitched_trace.json";
  const Status dumped = fleet[owner].node->dump_trace(path);
  ASSERT_TRUE(dumped.is_ok()) << dumped.message();
  std::ifstream in(path, std::ios::binary);
  const std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find(client_span->trace.hex()), std::string::npos);
}

TEST(WireMetrics, KMetricsScrapeReturnsTextExposition) {
  auto sha = progen::build_chstone_like("gsm");
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(sha.get(), 5));
  serve::RemoteCompileClient client({harness.node->endpoint()});

  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  ASSERT_TRUE(client.compile(request).is_ok());

  auto text = client.node_metrics(0);
  ASSERT_TRUE(text.is_ok()) << text.message();
  // One scrape covers serve counters, the latency histogram, eval-cache
  // economy, registry size, gossip health, and trace-ring accounting.
  EXPECT_NE(text.value().find("serve_requests_completed 1"), std::string::npos) << text.value();
  EXPECT_NE(text.value().find("serve_latency_ms_count 1"), std::string::npos);
  EXPECT_NE(text.value().find("serve_latency_ms_bucket{le="), std::string::npos);
  EXPECT_NE(text.value().find("registry_artifacts 1"), std::string::npos);
  EXPECT_NE(text.value().find("gossip_rounds 0"), std::string::npos);
  EXPECT_NE(text.value().find("eval_cache_"), std::string::npos);
  EXPECT_NE(text.value().find("trace_spans_recorded"), std::string::npos);
  // The same text is what the node exposes in-process.
  EXPECT_EQ(text.value(), harness.node->metrics_text());
}

// ---------------------------------------------------------------------------
// Replication catch-up (kSyncRequest / kSyncOffer)
// ---------------------------------------------------------------------------

TEST(WireSync, RequestAndOfferRoundTrip) {
  net::SyncRequest inventory;
  auto decoded_inv = net::decode_sync_request(net::encode_sync_request(inventory));
  ASSERT_TRUE(decoded_inv.is_ok());
  EXPECT_EQ(decoded_inv.value().mode, net::SyncMode::kInventory);
  EXPECT_TRUE(decoded_inv.value().keys.empty());

  net::SyncRequest fetch;
  fetch.mode = net::SyncMode::kFetch;
  fetch.keys = {{"agent", 1}, {"agent", 3}};
  auto decoded_fetch = net::decode_sync_request(net::encode_sync_request(fetch));
  ASSERT_TRUE(decoded_fetch.is_ok());
  ASSERT_EQ(decoded_fetch.value().keys.size(), 2u);
  EXPECT_EQ(decoded_fetch.value().keys[1].name, "agent");
  EXPECT_EQ(decoded_fetch.value().keys[1].version, 3u);

  net::SyncOffer offer;
  offer.mode = net::SyncMode::kFetch;
  offer.blobs = {"blob-one", std::string(1000, 'x')};
  auto decoded_offer = net::decode_sync_offer(net::encode_sync_offer(offer));
  ASSERT_TRUE(decoded_offer.is_ok());
  ASSERT_EQ(decoded_offer.value().blobs.size(), 2u);
  EXPECT_EQ(decoded_offer.value().blobs[0], "blob-one");
  EXPECT_EQ(decoded_offer.value().blobs[1].size(), 1000u);

  // Corruption: truncated payloads and absurd counts fail cleanly.
  const std::string bytes = net::encode_sync_offer(offer);
  for (std::size_t cut = 1; cut < bytes.size(); cut += 11) {
    EXPECT_FALSE(net::decode_sync_offer(std::string_view(bytes).substr(0, cut)).is_ok());
  }
  EXPECT_FALSE(net::decode_sync_request("garbage").is_ok());
}

TEST(SyncCatchUp, LateJoinerConvergesBitIdentically) {
  auto sha = progen::build_chstone_like("sha");
  auto qsort = progen::build_chstone_like("qsort");
  NodeHarness seeded;
  // Three artifacts across two names, published before the joiner exists.
  ASSERT_TRUE(seeded.node->publish("agent", make_test_artifact(sha.get(), 1)).is_ok());
  ASSERT_TRUE(seeded.node->publish("agent", make_test_artifact(sha.get(), 2)).is_ok());
  ASSERT_TRUE(seeded.node->publish("other", make_test_artifact(qsort.get(), 3)).is_ok());

  NodeHarness joiner;
  auto report = joiner.node->sync_from(seeded.node->endpoint());
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().peer_models, 3u);
  EXPECT_EQ(report.value().fetched, 3u);
  EXPECT_EQ(report.value().already_present, 0u);
  EXPECT_GT(report.value().fetched_bytes, 0u);

  for (const auto& [name, version] :
       std::vector<std::pair<std::string, std::uint32_t>>{
           {"agent", 1}, {"agent", 2}, {"other", 1}}) {
    const auto a = seeded.registry->export_model(name, version);
    const auto b = joiner.registry->export_model(name, version);
    ASSERT_TRUE(a.is_ok() && b.is_ok()) << name << " v" << version;
    EXPECT_EQ(a.value(), b.value()) << name << " v" << version;
  }

  // Anti-entropy is idempotent: a second pass fetches nothing.
  auto again = joiner.node->sync_from(seeded.node->endpoint());
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().fetched, 0u);
  EXPECT_EQ(again.value().already_present, 3u);
}

TEST(SyncCatchUp, ChunkedFetchCoversLargeInventories) {
  auto sha = progen::build_chstone_like("sha");
  net::ServeNodeConfig config;
  config.sync_fetch_batch = 2;  // force multiple fetch round trips
  NodeHarness seeded;
  for (std::uint64_t v = 0; v < 7; ++v) {
    ASSERT_TRUE(seeded.node->publish("agent", make_test_artifact(sha.get(), v + 1)).is_ok());
  }
  auto joiner_registry = std::make_shared<serve::ModelRegistry>();
  auto joiner_eval = std::make_shared<runtime::EvalService>();
  net::ServeNode joiner(joiner_registry, joiner_eval, config);
  ASSERT_TRUE(joiner.start().is_ok());
  auto report = joiner.sync_from(seeded.node->endpoint());
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().fetched, 7u);
  EXPECT_EQ(joiner_registry->size(), 7u);
  for (std::uint32_t v = 1; v <= 7; ++v) {
    EXPECT_EQ(joiner_registry->export_model("agent", v).value(),
              seeded.registry->export_model("agent", v).value());
  }
}

TEST(SyncCatchUp, ConcurrentPublishNeverShipsATornBlob) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness seeded;
  ASSERT_TRUE(seeded.node->publish("agent", make_test_artifact(sha.get(), 100)).is_ok());

  NodeHarness joiner;
  std::atomic<bool> done{false};
  // Publisher thread: keeps minting versions while the joiner syncs.
  std::thread publisher([&] {
    for (std::uint64_t v = 0; v < 6; ++v) {
      ASSERT_TRUE(seeded.node->publish("agent", make_test_artifact(sha.get(), v + 101)).is_ok());
    }
    done.store(true);
  });
  // Syncing against a registry that is being published into: every pass must
  // succeed (sync_from fails loudly if any fetched blob fails validation —
  // i.e. if a torn blob ever crossed the wire).
  while (!done.load()) {
    auto report = joiner.node->sync_from(seeded.node->endpoint());
    ASSERT_TRUE(report.is_ok()) << report.message();
  }
  publisher.join();

  // One final pass after the publisher stopped: full convergence.
  auto final_pass = joiner.node->sync_from(seeded.node->endpoint());
  ASSERT_TRUE(final_pass.is_ok()) << final_pass.message();
  ASSERT_EQ(joiner.registry->size(), seeded.registry->size());
  for (const auto& key : seeded.registry->list()) {
    EXPECT_EQ(joiner.registry->export_model(key.name, key.version).value(),
              seeded.registry->export_model(key.name, key.version).value())
        << key.name << " v" << key.version;
  }
}

TEST(SyncCatchUp, OversizeBlobFailsLoudlyInsteadOfSilentSuccess) {
  auto sha = progen::build_chstone_like("sha");
  // The seeded node's frame cap makes its kSyncOffer reply budget smaller
  // than one artifact blob: it can never ship the model. The joiner must
  // say so, not report a clean sync with nothing fetched.
  net::ServeNodeConfig small;
  small.max_frame_payload = 8 * 1024;
  NodeHarness seeded(small);
  ASSERT_TRUE(seeded.node->publish("big", make_test_artifact(sha.get(), 70)).is_ok());

  NodeHarness joiner;
  auto report = joiner.node->sync_from(seeded.node->endpoint());
  ASSERT_FALSE(report.is_ok());
  EXPECT_NE(report.message().find("shipped none"), std::string::npos) << report.message();
  EXPECT_EQ(joiner.registry->size(), 0u);
}

TEST(SyncCatchUp, CaughtUpArtifactsWarmTheJoinersEvalCache) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness seeded;
  serve::PolicyArtifact artifact = make_test_artifact(sha.get(), 42);
  artifact.baselines = {{ir::module_fingerprint(*sha), 777, 1.0}};
  ASSERT_TRUE(seeded.node->publish("warm", std::move(artifact)).is_ok());

  NodeHarness joiner;
  EXPECT_EQ(joiner.eval->stats().primed, 0u);
  ASSERT_TRUE(joiner.node->sync_from(seeded.node->endpoint()).is_ok());
  // The install hook ran warm-up during the sync import.
  EXPECT_EQ(joiner.eval->stats().primed, 1u);
  bool sampled = true;
  EXPECT_EQ(joiner.eval->measure(*sha, &sampled).cycles, 777u);
  EXPECT_FALSE(sampled);
}

TEST(SyncCatchUp, V1ArtifactsImportCleanlyAndSkipWarmup) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness seeded;
  // No baseline section: the blob serializes as format v1.
  ASSERT_TRUE(seeded.node->publish("cold", make_test_artifact(sha.get(), 50)).is_ok());
  const std::string blob = seeded.registry->export_model("cold", 1).value();
  ASSERT_GE(blob.size(), 8u);
  EXPECT_EQ(static_cast<unsigned char>(blob[4]), 1);  // format version byte

  NodeHarness joiner;
  auto report = joiner.node->sync_from(seeded.node->endpoint());
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().fetched, 1u);
  EXPECT_EQ(joiner.registry->export_model("cold", 1).value(), blob);
  // Warm-up ran (weight pre-fault) but had nothing to prime.
  EXPECT_EQ(joiner.eval->stats().primed, 0u);
  // And the model serves.
  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "cold";
  EXPECT_TRUE(joiner.node->service().compile_sync(request).is_ok());
}

// ---------------------------------------------------------------------------
// Background gossip over real TCP (TcpTransport)
// ---------------------------------------------------------------------------

TEST(ServeNodeGossip, BackgroundLoopConvergesAChainWithoutOperatorSync) {
  auto sha = progen::build_chstone_like("sha");
  net::ServeNodeConfig gossiping;
  gossiping.gossip.enabled = true;
  gossiping.gossip.period = std::chrono::milliseconds(25);
  gossiping.peer_timeout = std::chrono::milliseconds(2'000);

  // The owner gossips with nobody and pushes to nobody: propagation must
  // come entirely from the peers' pull loops.
  NodeHarness owner;
  net::ServeNodeConfig b_config = gossiping;
  b_config.gossip.seed = 2;
  net::ServeNodeConfig c_config = gossiping;
  c_config.gossip.seed = 3;
  NodeHarness b(b_config);
  NodeHarness c(c_config);
  b.node->add_peer(owner.node->endpoint());
  c.node->add_peer(b.node->endpoint());  // c has never heard of the owner

  ASSERT_TRUE(owner.node->publish("agent", make_test_artifact(sha.get(), 5)).is_ok());

  // Two epidemic hops: b pulls from the owner, then c pulls from b — with
  // zero operator sync_from calls and the owner never enumerating the fleet.
  const auto deadline = std::chrono::steady_clock::now() + 20s;
  while (c.registry->size() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(c.registry->size(), 1u) << "gossip never propagated the publish";
  EXPECT_EQ(c.registry->export_model("agent", 1).value(),
            owner.registry->export_model("agent", 1).value());

  // Gossip health is surfaced through node stats (the kStats snapshot).
  const obs::MetricsSnapshot stats = c.node->stats();
  EXPECT_GT(gauge_of(stats, "gossip_rounds"), 0.0);
  EXPECT_EQ(gauge_of(stats, "gossip_fetched"), 1.0);
  EXPECT_GE(gauge_of(stats, "gossip_last_sync_age_ms"), 0.0);  // synced at least once
  // The owner never pulled: its gossip counters stay untouched, and its
  // last-sync age reads -1 (never synced).
  EXPECT_EQ(gauge_of(owner.node->stats(), "gossip_rounds"), 0.0);
  EXPECT_EQ(gauge_of(owner.node->stats(), "gossip_last_sync_age_ms"), -1.0);
}

TEST(SyncCatchUp, ReplicationPushAlsoWarmsReplicas) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness a;
  NodeHarness b;
  a.node->add_peer(b.node->endpoint());
  serve::PolicyArtifact artifact = make_test_artifact(sha.get(), 60);
  artifact.baselines = {{ir::module_fingerprint(*sha), 555, 2.0}};
  auto reply = a.node->publish("warm", std::move(artifact));
  ASSERT_TRUE(reply.is_ok()) << reply.message();
  EXPECT_EQ(reply.value().peer_failures, 0u);
  EXPECT_EQ(a.eval->stats().primed, 1u);  // publisher warms itself too
  EXPECT_EQ(b.eval->stats().primed, 1u);  // replica warmed by the push
}

// ---------------------------------------------------------------------------
// Fleet monitor
// ---------------------------------------------------------------------------

TEST(FleetMonitorTest, MergesCountersReservoirsAndBreakdowns) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness a;
  NodeHarness b;
  a.node->add_peer(b.node->endpoint());

  auto client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{a.node->endpoint(), b.node->endpoint()});
  ASSERT_TRUE(client->publish(0, "agent", make_test_artifact(sha.get(), 8)).is_ok());

  // Drive traffic across the fleet: distinct programs spread over the ring.
  std::size_t issued = 0;
  for (const char* name : {"sha", "gsm", "qsort", "adpcm", "aes"}) {
    auto program = progen::build_chstone_like(name);
    serve::CompileRequest request;
    request.module = program.get();
    request.model = "agent";
    auto response = client->compile(request);
    ASSERT_TRUE(response.is_ok()) << name << ": " << response.message();
    ++issued;
  }

  serve::FleetMonitor monitor(client);
  const serve::FleetStats fleet = monitor.poll();
  EXPECT_EQ(fleet.snapshot_version, 1u);
  EXPECT_EQ(fleet.nodes, 2u);
  EXPECT_EQ(fleet.reachable, 2u);
  // Per-node completions sum to exactly the client-observed total...
  EXPECT_EQ(fleet.completed, issued);
  std::uint64_t per_node_sum = 0;
  for (const auto& report : fleet.per_node) {
    ASSERT_TRUE(report.reachable) << report.error;
    per_node_sum += report.stats.counter("serve_requests_completed");
  }
  EXPECT_EQ(per_node_sum, issued);
  // ...as do the merged reservoir and the per-model breakdown.
  EXPECT_EQ(fleet.latency_samples, issued);
  ASSERT_EQ(fleet.per_model.size(), 1u);
  EXPECT_EQ(fleet.per_model[0].model, "agent");
  EXPECT_EQ(fleet.per_model[0].completed, issued);
  EXPECT_EQ(fleet.objective_completed[0], issued);
  // Merged quantiles come from pooled samples: bounded by min/max.
  EXPECT_GT(fleet.latency.p50_ms, 0.0);
  EXPECT_LE(fleet.latency.p50_ms, fleet.latency.max_ms);
  EXPECT_LE(fleet.latency.p95_ms, fleet.latency.max_ms);
  // Registries converged, so the model spread is flat.
  EXPECT_EQ(fleet.models_min, 1u);
  EXPECT_EQ(fleet.models_max, 1u);

  const serve::FleetStats again = monitor.poll();
  EXPECT_EQ(again.snapshot_version, 2u);
  EXPECT_EQ(monitor.last().snapshot_version, 2u);
}

TEST(FleetMonitorTest, ReportsUnreachableNodesWithoutFailingTheSnapshot) {
  auto sha = progen::build_chstone_like("sha");
  NodeHarness live;
  live.registry->publish("agent", make_test_artifact(sha.get(), 9));

  // A port with nothing behind it: bind a listener to reserve one, then
  // close it so connects are refused quickly.
  net::RemoteEndpoint dead;
  {
    auto listener = net::TcpListener::bind_loopback(0);
    ASSERT_TRUE(listener.is_ok());
    dead = {"127.0.0.1", listener.value().port()};
  }

  serve::RemoteClientConfig config;
  config.connect_timeout = 500ms;
  config.request_deadline = 2000ms;
  auto client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{live.node->endpoint(), dead}, config);

  serve::CompileRequest request;
  request.module = sha.get();
  request.model = "agent";
  ASSERT_TRUE(client->node_stats(0).is_ok());

  serve::FleetMonitor monitor(client);
  const serve::FleetStats fleet = monitor.poll();
  EXPECT_EQ(fleet.nodes, 2u);
  EXPECT_EQ(fleet.reachable, 1u);
  EXPECT_TRUE(fleet.per_node[0].reachable);
  EXPECT_FALSE(fleet.per_node[1].reachable);
  EXPECT_FALSE(fleet.per_node[1].error.empty());
  EXPECT_EQ(fleet.models_min, 1u);  // merged view covers the live node only
  EXPECT_EQ(fleet.models_max, 1u);
}


// ---------------------------------------------------------------------------
// Fleet characterization: every FleetStats field against in-process state
// ---------------------------------------------------------------------------

/// The fleet view a monitor should report, computed from each node's own
/// in-process state: serve metrics, eval counters, registry size, learn
/// counters and provenance log. Gossip is off in the fleet this checks, so
/// membership is a fleet of one per node and gossip rounds stay 0.
void expect_fleet_matches_nodes(const serve::FleetStats& fleet,
                                const std::vector<NodeHarness*>& nodes,
                                std::uint64_t gossip_fetched) {
  ASSERT_EQ(fleet.nodes, nodes.size());
  EXPECT_EQ(fleet.reachable, nodes.size());
  EXPECT_EQ(fleet.nodes_unreachable, 0u);
  ASSERT_EQ(fleet.per_node.size(), nodes.size());

  std::uint64_t completed = 0, failed = 0, rejected = 0, queue_depth = 0;
  std::uint64_t shed_overload = 0, shed_deadline = 0;
  std::uint64_t hits = 0, misses = 0, sequence_hits = 0, primed = 0;
  std::uint64_t models_min = ~0ull, models_max = 0;
  std::uint64_t promoted = 0, rolled_back = 0, pending = 0, dropped = 0;
  obs::HistogramSnapshot latency;
  std::map<std::pair<std::string, std::uint32_t>, std::pair<std::uint64_t, std::uint64_t>>
      per_model;
  std::array<std::uint64_t, serve::kNumObjectives> objectives{};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    net::ServeNode& node = *nodes[i]->node;
    EXPECT_TRUE(fleet.per_node[i].reachable) << fleet.per_node[i].error;
    EXPECT_TRUE(fleet.per_node[i].error.empty());
    EXPECT_EQ(fleet.per_node[i].endpoint.port, node.port());
    const serve::ServeMetrics m = node.service().metrics();
    completed += m.completed;
    failed += m.failed;
    rejected += m.rejected;
    queue_depth += m.queue_depth;
    shed_overload += m.shed_overload;
    shed_deadline += m.shed_deadline;
    const runtime::EvalStats eval = node.service().eval_service()->stats();
    hits += eval.hits;
    misses += eval.misses;
    sequence_hits += eval.sequence_hits;
    primed += eval.primed;
    const std::uint64_t models = nodes[i]->registry->size();
    models_min = std::min(models_min, models);
    models_max = std::max(models_max, models);
    promoted += node.service().metrics_registry()->counter("learn_promoted").value();
    rolled_back += node.service().metrics_registry()->counter("learn_rolled_back").value();
    if (node.provenance_log() != nullptr) {
      pending += node.provenance_log()->size();
      dropped += node.provenance_log()->dropped();
    }
    if (i == 0) {
      latency = m.latency_hist;
    } else {
      latency += m.latency_hist;
    }
    for (const serve::ModelVersionStats& row : m.per_model) {
      per_model[{row.model, row.version}].first += row.completed;
      per_model[{row.model, row.version}].second += row.failed;
    }
    for (std::size_t o = 0; o < serve::kNumObjectives; ++o) {
      objectives[o] += m.objective_completed[o];
    }
  }

  EXPECT_EQ(fleet.completed, completed);
  EXPECT_EQ(fleet.failed, failed);
  EXPECT_EQ(fleet.rejected, rejected);
  EXPECT_EQ(fleet.queue_depth, queue_depth);
  EXPECT_EQ(fleet.shed_overload, shed_overload);
  EXPECT_EQ(fleet.shed_deadline, shed_deadline);
  EXPECT_DOUBLE_EQ(fleet.completed_per_reachable,
                   static_cast<double>(completed) / static_cast<double>(nodes.size()));
  EXPECT_EQ(fleet.eval_hits, hits);
  EXPECT_EQ(fleet.eval_misses, misses);
  EXPECT_EQ(fleet.eval_sequence_hits, sequence_hits);
  EXPECT_EQ(fleet.eval_primed, primed);
  EXPECT_EQ(fleet.models_min, models_min);
  EXPECT_EQ(fleet.models_max, models_max);
  EXPECT_EQ(fleet.gossip_rounds, 0u);
  EXPECT_EQ(fleet.gossip_fetched, gossip_fetched);
  EXPECT_EQ(fleet.members_alive_min, 1u);
  EXPECT_EQ(fleet.members_suspect_max, 0u);
  EXPECT_EQ(fleet.members_dead_max, 0u);
  EXPECT_EQ(fleet.learn_promoted, promoted);
  EXPECT_EQ(fleet.learn_rolled_back, rolled_back);
  EXPECT_EQ(fleet.provenance_pending, pending);
  EXPECT_EQ(fleet.provenance_dropped, dropped);

  EXPECT_EQ(fleet.latency_hist.spec, obs::HistogramSpec{});
  EXPECT_EQ(fleet.latency_hist.counts, latency.counts);
  EXPECT_EQ(fleet.latency_hist.count, latency.count);
  EXPECT_DOUBLE_EQ(fleet.latency_hist.sum, latency.sum);
  EXPECT_DOUBLE_EQ(fleet.latency_hist.min, latency.min);
  EXPECT_DOUBLE_EQ(fleet.latency_hist.max, latency.max);
  EXPECT_EQ(fleet.latency_samples, latency.count);
  const serve::LatencyQuantiles quantiles = serve::latency_view(latency);
  EXPECT_DOUBLE_EQ(fleet.latency.p50_ms, quantiles.p50_ms);
  EXPECT_DOUBLE_EQ(fleet.latency.p95_ms, quantiles.p95_ms);
  EXPECT_DOUBLE_EQ(fleet.latency.mean_ms, quantiles.mean_ms);
  EXPECT_DOUBLE_EQ(fleet.latency.max_ms, quantiles.max_ms);

  ASSERT_EQ(fleet.per_model.size(), per_model.size());
  std::size_t row = 0;
  for (const auto& [key, counts] : per_model) {
    EXPECT_EQ(fleet.per_model[row].model, key.first);
    EXPECT_EQ(fleet.per_model[row].version, key.second);
    EXPECT_EQ(fleet.per_model[row].completed, counts.first) << key.first << " v" << key.second;
    EXPECT_EQ(fleet.per_model[row].failed, counts.second) << key.first << " v" << key.second;
    ++row;
  }
  EXPECT_EQ(fleet.objective_completed, objectives);
}

TEST(FleetCharacterization, EveryFleetFieldMatchesTheNodesInProcessState) {
  auto sha = progen::build_chstone_like("sha");
  net::ServeNodeConfig small_log;
  small_log.provenance_capacity = 2;  // overflows: provenance_dropped > 0
  net::ServeNodeConfig no_log;
  no_log.provenance_capacity = 0;  // no provenance log at all
  NodeHarness a;
  NodeHarness b(small_log);
  NodeHarness c(no_log);
  const std::vector<NodeHarness*> nodes = {&a, &b, &c};
  a.node->add_peer(b.node->endpoint());
  a.node->add_peer(c.node->endpoint());
  ASSERT_TRUE(a.node->publish("agent", make_test_artifact(sha.get(), 21)).is_ok());
  ASSERT_TRUE(a.node->publish("agent", make_test_artifact(sha.get(), 22)).is_ok());
  a.registry->publish("solo", make_test_artifact(sha.get(), 23));  // node a only

  auto client = std::make_shared<serve::RemoteCompileClient>(std::vector<net::RemoteEndpoint>{
      a.node->endpoint(), b.node->endpoint(), c.node->endpoint()});
  for (const char* name : {"sha", "gsm", "qsort", "adpcm", "aes"}) {
    auto program = progen::build_chstone_like(name);
    serve::CompileRequest request;
    request.module = program.get();
    request.model = "agent";
    request.version = 1;
    request.objective = serve::Objective::kCycles;
    auto pinned = client->compile(request);
    ASSERT_TRUE(pinned.is_ok()) << name << ": " << pinned.message();
    request.version = 0;
    request.objective = serve::Objective::kCyclesTimesArea;
    auto latest = client->compile(request);
    ASSERT_TRUE(latest.is_ok()) << name << ": " << latest.message();
  }
  serve::CompileRequest unknown;
  unknown.module = sha.get();
  unknown.model = "ghost";
  EXPECT_FALSE(client->compile(unknown).is_ok());
  // Ring placement varies with the ephemeral ports, so node b's small log
  // is overflowed in-process: three more served requests than it can hold.
  for (int i = 0; i < 3; ++i) {
    serve::CompileRequest local;
    local.module = sha.get();
    local.model = "agent";
    ASSERT_TRUE(b.node->service().submit(local).get().is_ok());
  }
  net::CanaryControl rollback;
  rollback.action = net::CanaryAction::kRolledBack;
  rollback.model = "agent";
  ASSERT_TRUE(client->canary_control(1, rollback).is_ok());

  serve::FleetMonitor monitor(client);
  const serve::FleetStats before = monitor.poll();
  EXPECT_EQ(before.snapshot_version, 1u);
  EXPECT_EQ(before.last_sync_age_ms_max, net::kNeverSynced);
  expect_fleet_matches_nodes(before, nodes, 0);
  EXPECT_EQ(before.completed, 13u);
  EXPECT_EQ(before.failed, 1u);
  EXPECT_EQ(before.learn_rolled_back, 1u);
  EXPECT_GT(before.provenance_dropped, 0u);

  const auto first_sync = std::chrono::steady_clock::now();
  std::uint64_t fetched = 0;
  for (const auto& [to, from] : {std::pair{&b, &a}, std::pair{&c, &b}, std::pair{&a, &c}}) {
    auto report = to->node->sync_from(from->node->endpoint());
    ASSERT_TRUE(report.is_ok()) << report.message();
    fetched += report.value().fetched;
  }
  c.registry->publish("c-only", make_test_artifact(sha.get(), 24));

  const serve::FleetStats after = monitor.poll();
  const auto since_first_sync = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - first_sync);
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_NE(after.last_sync_age_ms_max, net::kNeverSynced);
  EXPECT_LE(after.last_sync_age_ms_max, static_cast<std::uint64_t>(since_first_sync.count()));
  expect_fleet_matches_nodes(after, nodes, fetched);
  EXPECT_GT(fetched, 0u);
  EXPECT_EQ(after.models_min, 3u);
  EXPECT_EQ(after.models_max, 4u);
  EXPECT_NE(serve::fleet_summary(after).find("nodes 3/3"), std::string::npos);
}

}  // namespace
}  // namespace autophase
