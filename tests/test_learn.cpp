// Closed-loop online learning (src/learn/): provenance log + codec (golden
// file pinned), deterministic shadow-traffic splits, PPO warm starts,
// regret-gated promotion, and the full fleet loop — serve -> collect over
// kProvenance -> fine-tune -> canary publish -> shadow split -> promote —
// against real ServeNodes on loopback.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/printer.hpp"
#include "learn/collector.hpp"
#include "learn/online_trainer.hpp"
#include "learn/promoter.hpp"
#include "learn/provenance.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "passes/pass.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/artifact.hpp"
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

std::string data_path(const std::string& name) {
  return std::string(AUTOPHASE_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with AUTOPHASE_REGEN_GOLDEN=1)";
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void maybe_regenerate(const std::string& name, const std::string& bytes) {
  if (std::getenv("AUTOPHASE_REGEN_GOLDEN") == nullptr) return;
  std::ofstream out(data_path(name), std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << data_path(name);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A numbered record with distinguishable fields (no module bytes).
learn::ProvenanceRecord numbered_record(std::uint32_t n) {
  learn::ProvenanceRecord record;
  record.fingerprint = 0x1000 + n;
  record.model = "agent";
  record.version = n;
  record.sequence = {static_cast<int>(n), 3};
  record.baseline_cycles = 100 + n;
  record.predicted_cycles = 90 + n;
  record.measured_cycles = 80 + n;
  record.measured_area = static_cast<double>(n) * 0.25;
  return record;
}

/// A synthetic cohort record for promotion-decision tests.
learn::ProvenanceRecord cohort_record(const std::string& model, std::uint64_t fingerprint,
                                      std::uint64_t measured, std::uint64_t predicted) {
  learn::ProvenanceRecord record;
  record.fingerprint = fingerprint;
  record.model = model;
  record.canary = model != "agent";
  record.measured_cycles = measured;
  record.predicted_cycles = predicted;
  record.baseline_cycles = measured + 50;
  return record;
}

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
// ProvenanceLog
// ---------------------------------------------------------------------------

TEST(ProvenanceLog, BoundedAppendEvictsOldestAndDrainsFifo) {
  learn::ProvenanceLog log(3);
  for (std::uint32_t n = 0; n < 5; ++n) log.append(numbered_record(n));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2u);  // records 0 and 1 evicted, oldest first

  auto two = log.drain(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].version, 2u);
  EXPECT_EQ(two[1].version, 3u);
  EXPECT_EQ(log.size(), 1u);

  auto rest = log.drain(100);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].version, 4u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.drain(10).empty());
}

TEST(ProvenanceLog, CheckpointRoundTripsAndRejectsCorruption) {
  learn::ProvenanceLog log(16);
  for (std::uint32_t n = 0; n < 4; ++n) log.append(numbered_record(n));
  const std::string checkpoint = log.serialize();

  learn::ProvenanceLog restored(16);
  ASSERT_TRUE(restored.restore(checkpoint).is_ok());
  EXPECT_EQ(restored.size(), 4u);
  auto records = restored.drain(10);
  ASSERT_EQ(records.size(), 4u);
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(records[n].version, n);
    EXPECT_EQ(records[n].sequence, numbered_record(n).sequence);
    EXPECT_EQ(records[n].measured_area, numbered_record(n).measured_area);
  }

  learn::ProvenanceLog fresh(16);
  EXPECT_FALSE(fresh.restore("not a checkpoint").is_ok());
  std::string flipped = checkpoint;
  flipped[checkpoint.size() / 2] = static_cast<char>(flipped[checkpoint.size() / 2] ^ 0x5a);
  EXPECT_FALSE(fresh.restore(flipped).is_ok());
  EXPECT_EQ(fresh.size(), 0u);  // a bad checkpoint installs nothing
}

/// The record's canonical encoding: two records compare equal exactly when
/// every field, module bytes included, matches.
std::string encoded(const learn::ProvenanceRecord& record) {
  serve::ByteWriter w;
  learn::write_provenance_record(w, record);
  return w.take();
}

TEST(ProvenanceLog, RepeatedProgramsComeBackByteEqual) {
  // Serving traffic repeats a few programs, and two different programs may
  // share a fingerprint. Whatever the log shares internally, each record
  // must leave it exactly as it was appended.
  const std::string kernel_a(3000, 'a');
  const std::string kernel_b = std::string(1900, 'b') + "tail";
  const std::string collides_with_a(2500, 'c');  // a's fingerprint, other bytes
  const auto record = [](std::uint32_t n, std::uint64_t fingerprint, const std::string& bytes) {
    learn::ProvenanceRecord r = numbered_record(n);
    r.fingerprint = fingerprint;
    r.module_bytes = bytes;
    return r;
  };
  std::vector<learn::ProvenanceRecord> appended = {
      record(0, 1, kernel_a),        record(1, 2, kernel_b), record(2, 1, kernel_a),
      record(3, 1, collides_with_a), record(4, 1, kernel_a), numbered_record(5),
      record(6, 2, kernel_b),        record(7, 1, collides_with_a),
      record(8, 1, kernel_a),        record(9, 3, kernel_b)};

  learn::ProvenanceLog log(6);
  for (const learn::ProvenanceRecord& r : appended) log.append(r);
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(log.dropped(), 4u);  // records 0..3 evicted, oldest first
  const std::vector<learn::ProvenanceRecord> live(appended.begin() + 4, appended.end());

  // A checkpoint carries every live record, module bytes filled back in.
  learn::ProvenanceLog restored(16);
  ASSERT_TRUE(restored.restore(log.serialize()).is_ok());
  const std::vector<learn::ProvenanceRecord> from_checkpoint = restored.drain(100);
  ASSERT_EQ(from_checkpoint.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(encoded(from_checkpoint[i]), encoded(live[i])) << "checkpoint record " << i;
  }

  // A partial drain hands back the oldest records and leaves the rest.
  const std::vector<learn::ProvenanceRecord> first = log.drain(2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(encoded(first[0]), encoded(live[0]));
  EXPECT_EQ(encoded(first[1]), encoded(live[1]));
  EXPECT_EQ(log.size(), 4u);

  // A program whose earlier records were drained is appended again.
  log.append(record(10, 1, kernel_a));
  const std::vector<learn::ProvenanceRecord> rest = log.drain(100);
  ASSERT_EQ(rest.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(encoded(rest[i]), encoded(live[i + 2])) << "drained record " << i;
  }
  EXPECT_EQ(encoded(rest[4]), encoded(record(10, 1, kernel_a)));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 4u);
}

// ---------------------------------------------------------------------------
// Record codec + golden file
// ---------------------------------------------------------------------------

TEST(ProvenanceCodec, RecordRoundTripsEveryField) {
  learn::ProvenanceRecord record = numbered_record(7);
  record.module_bytes = std::string("blob\x00with null", 14);
  record.objective = serve::Objective::kCyclesTimesArea;
  record.canary = true;
  record.weights = {1.0, 0.25, 0.5};

  serve::ByteWriter w;
  learn::write_provenance_record(w, record);
  serve::ByteReader r(w.bytes());
  learn::ProvenanceRecord out;
  ASSERT_TRUE(learn::read_provenance_record(r, out));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(out.fingerprint, record.fingerprint);
  EXPECT_EQ(out.module_bytes, record.module_bytes);
  EXPECT_EQ(out.objective, record.objective);
  EXPECT_EQ(out.model, record.model);
  EXPECT_EQ(out.version, record.version);
  EXPECT_EQ(out.canary, record.canary);
  EXPECT_EQ(out.sequence, record.sequence);
  EXPECT_EQ(out.baseline_cycles, record.baseline_cycles);
  EXPECT_EQ(out.predicted_cycles, record.predicted_cycles);
  EXPECT_EQ(out.measured_cycles, record.measured_cycles);
  EXPECT_EQ(out.measured_area, record.measured_area);
  EXPECT_EQ(out.weights, record.weights);

  // The same bytes read at version 1 stop before the weight vector: the
  // reader leaves it inactive and the trailing 24 bytes unconsumed — exactly
  // how a v1 batch (which never wrote them) decodes.
  serve::ByteReader v1(w.bytes());
  learn::ProvenanceRecord old_peer;
  ASSERT_TRUE(learn::read_provenance_record(v1, old_peer, /*version=*/1));
  EXPECT_EQ(v1.remaining(), 24u);
  EXPECT_FALSE(old_peer.weights.active());
}

TEST(ProvenanceCodec, MalformedBatchesAreRejectedCleanly) {
  const std::string bytes = learn::serialize_records({numbered_record(1), numbered_record(2)});

  EXPECT_FALSE(learn::deserialize_records("garbage").is_ok());
  // Truncation at every offset: always an error, never a crash or over-read.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(learn::deserialize_records(std::string_view(bytes).substr(0, cut)).is_ok());
  }
  // Bit flips fail the checksum (or validation, if the flip lands there).
  for (std::size_t at : {std::size_t{9}, bytes.size() / 2, bytes.size() - 3}) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x20);
    EXPECT_FALSE(learn::deserialize_records(flipped).is_ok()) << "offset " << at;
  }

  // A hand-framed batch promising 2^40 records in a few bytes must bounce on
  // the count guard before any allocation.
  serve::ByteWriter payload;
  payload.u32(learn::kProvenanceRecordVersion);
  payload.u64(1ull << 40);
  serve::ByteWriter framed;
  framed.u32(0x56505041);  // "APPV"
  framed.str(payload.bytes());
  framed.u64(fnv1a(payload.bytes()));
  auto hostile = learn::deserialize_records(framed.bytes());
  EXPECT_FALSE(hostile.is_ok());

  // An out-of-range objective byte inside an otherwise valid record.
  learn::ProvenanceRecord record = numbered_record(3);
  serve::ByteWriter rec;
  learn::write_provenance_record(rec, record);
  std::string mutated = rec.take();
  // objective is the u8 right after fingerprint (u64) + module_bytes (u64 len).
  mutated[16] = 17;
  serve::ByteReader r(mutated);
  learn::ProvenanceRecord out;
  EXPECT_FALSE(learn::read_provenance_record(r, out));

  // A well-framed batch whose sequence names no Table-1 pass (past the
  // table, the terminate action, negative) is refused before replay could
  // apply it.
  for (const int index : {46, passes::kTerminateAction, -7, 100000}) {
    learn::ProvenanceRecord bad = numbered_record(4);
    bad.sequence = {3, index};
    EXPECT_FALSE(learn::deserialize_records(learn::serialize_records({bad})).is_ok()) << index;
  }
  learn::ProvenanceRecord edge = numbered_record(5);
  edge.sequence = {0, passes::kNumPasses - 1};
  EXPECT_TRUE(learn::deserialize_records(learn::serialize_records({edge})).is_ok());
}

/// The shared golden cohort: dyadic values only (no RNG, no libm), so the
/// bytes are identical on every platform. Record 2 carries an active weight
/// vector — meaningless to a v1 writer, which is exactly the point: the v1
/// golden pins what old checkpoints look like (no weights on the wire), the
/// v2 golden pins that today's writer appends them and nothing else moved.
std::vector<learn::ProvenanceRecord> golden_records() {
  std::vector<learn::ProvenanceRecord> records;
  for (std::uint32_t n = 0; n < 3; ++n) {
    learn::ProvenanceRecord record;
    record.fingerprint = 0xA5A5'0000 + n;
    record.module_bytes = std::string(1 + n, static_cast<char>('m' + n));
    record.objective = static_cast<serve::Objective>(n % 3);
    record.model = n == 2 ? "agent-canary" : "agent";
    record.version = n + 1;
    record.canary = n == 2;
    record.sequence = {static_cast<int>(n), 11, 7};
    record.baseline_cycles = 4096 + n;
    record.predicted_cycles = 2048 + n;
    record.measured_cycles = 1024 + n;
    record.measured_area = static_cast<double>((n * 13 + 1) % 23) * 0.0625 - 0.5;
    if (n == 2) record.weights = {1.0, 0.5, 0.25};
    records.push_back(std::move(record));
  }
  return records;
}

TEST(ProvenanceGolden, V2BatchIsBitStable) {
  const std::string bytes = learn::serialize_records(golden_records());
  maybe_regenerate("provenance_v2.bin", bytes);

  const std::string golden = read_file(data_path("provenance_v2.bin"));
  ASSERT_FALSE(golden.empty());
  // Today's writer must reproduce yesterday's bytes exactly.
  EXPECT_EQ(bytes, golden);

  // And the committed bytes round-trip: decode, re-encode, compare.
  auto decoded = learn::deserialize_records(golden);
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  ASSERT_EQ(decoded.value().size(), 3u);
  EXPECT_EQ(decoded.value()[2].model, "agent-canary");
  EXPECT_TRUE(decoded.value()[2].canary);
  EXPECT_EQ(decoded.value()[1].sequence, (std::vector<int>{1, 11, 7}));
  EXPECT_EQ(decoded.value()[2].weights, (serve::ObjectiveWeights{1.0, 0.5, 0.25}));
  EXPECT_FALSE(decoded.value()[0].weights.active());
  EXPECT_EQ(learn::serialize_records(decoded.value()), golden);
}

TEST(ProvenanceGolden, V1CheckpointStillDecodesWithInactiveWeights) {
  // provenance_v1.bin was written by the v1 codec and is deliberately never
  // regenerated: it is the proof that last release's checkpoints stay
  // readable. Every pre-weights field must decode unchanged, and the weight
  // vector — which v1 never carried — must come back inactive.
  const std::string golden = read_file(data_path("provenance_v1.bin"));
  ASSERT_FALSE(golden.empty());
  auto decoded = learn::deserialize_records(golden);
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  ASSERT_EQ(decoded.value().size(), 3u);

  const std::vector<learn::ProvenanceRecord> expected = golden_records();
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(decoded.value()[n].fingerprint, expected[n].fingerprint);
    EXPECT_EQ(decoded.value()[n].module_bytes, expected[n].module_bytes);
    EXPECT_EQ(decoded.value()[n].objective, expected[n].objective);
    EXPECT_EQ(decoded.value()[n].model, expected[n].model);
    EXPECT_EQ(decoded.value()[n].version, expected[n].version);
    EXPECT_EQ(decoded.value()[n].canary, expected[n].canary);
    EXPECT_EQ(decoded.value()[n].sequence, expected[n].sequence);
    EXPECT_EQ(decoded.value()[n].measured_cycles, expected[n].measured_cycles);
    EXPECT_EQ(decoded.value()[n].measured_area, expected[n].measured_area);
    EXPECT_FALSE(decoded.value()[n].weights.active()) << "record " << n;
  }
}

// ---------------------------------------------------------------------------
// Shadow-split selector
// ---------------------------------------------------------------------------

TEST(ShadowSplit, SelectionIsDeterministicMonotoneAndEdgeExact) {
  std::size_t selected_half = 0;
  for (std::uint64_t fp = 1; fp <= 2000; ++fp) {
    // Degenerate fractions are exact: 0 shadows nothing, 1 shadows all.
    EXPECT_FALSE(serve::shadow_selected(fp, 0.0));
    EXPECT_TRUE(serve::shadow_selected(fp, 1.0));
    // Deterministic: same inputs, same side, always.
    EXPECT_EQ(serve::shadow_selected(fp, 0.3), serve::shadow_selected(fp, 0.3));
    // Monotone: a program shadowed at fraction f stays shadowed at f' > f,
    // so widening a canary never flips programs out of the canary cohort.
    if (serve::shadow_selected(fp, 0.2)) {
      EXPECT_TRUE(serve::shadow_selected(fp, 0.6)) << fp;
    }
    if (serve::shadow_selected(fp, 0.5)) ++selected_half;
  }
  // The mixer spreads fingerprints evenly: ~50% land in a 0.5 split.
  EXPECT_GT(selected_half, 800u);
  EXPECT_LT(selected_half, 1200u);
  // NaN and negative fractions select nothing (defensive operator input).
  EXPECT_FALSE(serve::shadow_selected(42, -0.5));
  EXPECT_FALSE(serve::shadow_selected(42, std::nan("")));
}

// ---------------------------------------------------------------------------
// PPO warm start
// ---------------------------------------------------------------------------

TEST(PpoWarmStart, CopiesIncumbentWeightsAndValidatesShapes) {
  auto program = progen::build_chstone_like("qsort");
  const serve::PolicyArtifact incumbent = make_test_artifact(program.get(), 77);

  rl::PhaseOrderEnv env({program.get()}, tiny_env_config());
  rl::PpoConfig ppo;
  ppo.hidden = {12};
  ppo.seed = 123456;  // different init than the incumbent's training run
  rl::PpoTrainer trainer(env, ppo);
  ASSERT_NE(trainer.policy().flatten(), incumbent.policy.flatten());

  const ml::Mlp* value = incumbent.value.has_value() ? &incumbent.value.value() : nullptr;
  ASSERT_TRUE(trainer.warm_start(incumbent.policy, value).is_ok());
  EXPECT_EQ(trainer.policy().flatten(), incumbent.policy.flatten());

  // A mismatched architecture is a descriptive error, not a silent truncate.
  rl::PpoConfig wide = ppo;
  wide.hidden = {24};
  rl::PpoTrainer mismatched(env, wide);
  const Status rejected = mismatched.warm_start(incumbent.policy);
  EXPECT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.message().find("shape"), std::string::npos) << rejected.message();
}

// ---------------------------------------------------------------------------
// Promotion decision function
// ---------------------------------------------------------------------------

TEST(Promotion, EvaluatePromotionGatesOnSamplesRegretAndCalibration) {
  learn::PromotionPolicy policy;
  policy.min_canary_samples = 2;
  policy.min_incumbent_samples = 2;
  policy.regret_margin = 0.0;
  policy.calibration_slack = 0.25;

  // Too little canary traffic: insufficient, whatever the numbers say.
  std::vector<learn::ProvenanceRecord> thin = {
      cohort_record("agent", 1, 100, 100),
      cohort_record("agent", 2, 100, 100),
      cohort_record("agent-canary", 1, 50, 50),
  };
  auto report = learn::evaluate_promotion(thin, "agent", "agent-canary", policy);
  EXPECT_EQ(report.decision, learn::PromotionDecision::kInsufficientData);
  EXPECT_EQ(report.canary.samples, 1u);
  EXPECT_EQ(report.incumbent.samples, 2u);

  // Canary strictly better on the shared programs: promote. Regret is
  // measured against the best-known result per fingerprint across BOTH
  // cohorts, so the incumbent's 100-cycle results show up as regret against
  // the canary's 80.
  std::vector<learn::ProvenanceRecord> better = {
      cohort_record("agent", 1, 100, 100),
      cohort_record("agent", 2, 100, 100),
      cohort_record("agent-canary", 1, 80, 80),
      cohort_record("agent-canary", 2, 80, 80),
      cohort_record("other-model", 1, 1, 1),  // foreign cohorts are ignored
  };
  report = learn::evaluate_promotion(better, "agent", "agent-canary", policy);
  EXPECT_EQ(report.decision, learn::PromotionDecision::kPromote);
  EXPECT_EQ(report.canary.samples, 2u);
  EXPECT_DOUBLE_EQ(report.canary.mean_regret, 0.0);
  EXPECT_DOUBLE_EQ(report.incumbent.mean_regret, 0.25);
  EXPECT_GT(report.reason.size(), 0u);

  // Equal performance ties promote (the canary carries the newer traffic).
  std::vector<learn::ProvenanceRecord> equal = {
      cohort_record("agent", 1, 100, 100),
      cohort_record("agent", 2, 100, 100),
      cohort_record("agent-canary", 1, 100, 100),
      cohort_record("agent-canary", 2, 100, 100),
  };
  report = learn::evaluate_promotion(equal, "agent", "agent-canary", policy);
  EXPECT_EQ(report.decision, learn::PromotionDecision::kPromote);

  // Canary worse on measured regret: rollback.
  std::vector<learn::ProvenanceRecord> worse = {
      cohort_record("agent", 1, 80, 80),
      cohort_record("agent", 2, 80, 80),
      cohort_record("agent-canary", 1, 100, 100),
      cohort_record("agent-canary", 2, 100, 100),
  };
  report = learn::evaluate_promotion(worse, "agent", "agent-canary", policy);
  EXPECT_EQ(report.decision, learn::PromotionDecision::kRollback);
  EXPECT_NE(report.reason.find("regret"), std::string::npos) << report.reason;

  // Canary wins on regret but its cycle predictions have gone wild: the
  // calibration gate rolls it back.
  std::vector<learn::ProvenanceRecord> miscalibrated = {
      cohort_record("agent", 1, 100, 100),
      cohort_record("agent", 2, 100, 100),
      cohort_record("agent-canary", 1, 90, 900),
      cohort_record("agent-canary", 2, 90, 900),
  };
  report = learn::evaluate_promotion(miscalibrated, "agent", "agent-canary", policy);
  EXPECT_EQ(report.decision, learn::PromotionDecision::kRollback);
  EXPECT_NE(report.reason.find("cycle error"), std::string::npos) << report.reason;
}

// ---------------------------------------------------------------------------
// Shadow-off byte identity
// ---------------------------------------------------------------------------

TEST(ShadowSplit, ShadowOffResponsesEncodeByteIdenticalToPreCanaryWire) {
  auto program = progen::build_chstone_like("sha");
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(program.get(), 21));

  serve::CompileRequest request;
  request.module = program.get();
  request.model = "agent";
  auto response = harness.node->service().compile_sync(request);
  ASSERT_TRUE(response.is_ok()) << response.message();
  ASSERT_FALSE(response.value().provenance.canary);

  // The canary flag travels as an optional tagged trailer emitted only when
  // true: a shadow-off response's bytes carry no trace of the feature, so a
  // fleet without splits is byte-identical to the pre-canary protocol.
  const std::string off_bytes = net::encode_compile_response(response);
  response.value().provenance.canary = true;
  const std::string on_bytes = net::encode_compile_response(response);
  ASSERT_GT(on_bytes.size(), off_bytes.size());
  EXPECT_EQ(on_bytes.compare(0, off_bytes.size(), off_bytes), 0)
      << "canary trailer must append, not rewrite";

  auto off = net::decode_compile_response(off_bytes);
  auto on = net::decode_compile_response(on_bytes);
  ASSERT_TRUE(off.is_ok() && on.is_ok());
  EXPECT_FALSE(off.value().provenance.canary);
  EXPECT_TRUE(on.value().provenance.canary);
}

// ---------------------------------------------------------------------------
// Collector over the wire
// ---------------------------------------------------------------------------

TEST(Collector, DrainsNodesInBoundedBatchesAndReplaysRecords) {
  auto sha = progen::build_chstone_like("sha");
  auto gsm = progen::build_chstone_like("gsm");
  NodeHarness harness;
  harness.registry->publish("agent", make_test_artifact(sha.get(), 5));

  auto client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{harness.node->endpoint()});
  for (int round = 0; round < 2; ++round) {
    for (const ir::Module* module : {sha.get(), gsm.get()}) {
      serve::CompileRequest request;
      request.module = module;
      request.model = "agent";
      auto response = client->compile(request);
      ASSERT_TRUE(response.is_ok()) << response.message();
    }
  }

  // max_per_drain=1 forces the per-node drain loop to iterate.
  learn::Collector collector(client, /*max_per_drain=*/1);
  learn::ProvenanceLog collected(64);
  const learn::CollectReport report = collector.collect(collected);
  EXPECT_EQ(report.fetched, 4u);
  EXPECT_EQ(report.nodes_reached, 1u);
  EXPECT_EQ(report.nodes_failed, 0u);
  EXPECT_EQ(report.remaining, 0u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(collected.size(), 4u);
  // The drain was destructive: the node's log is empty now.
  EXPECT_EQ(harness.node->provenance_log()->size(), 0u);

  auto records = collected.drain(64);
  // Each record replays: module bytes decode to the exact program, and
  // re-measuring the served sequence through a fresh EvalService (same
  // default config) reproduces the cycles the node reported.
  auto replayed = learn::replay_records(records, *std::make_shared<runtime::EvalService>());
  ASSERT_EQ(replayed.size(), 4u);
  for (const auto& r : replayed) {
    ASSERT_NE(r.module, nullptr);
    EXPECT_EQ(ir::module_fingerprint(*r.module), r.record.fingerprint);
    EXPECT_EQ(r.baseline.cycles, r.record.baseline_cycles);
    EXPECT_EQ(r.sequence_cycles, r.record.measured_cycles);
  }
  // Two distinct programs behind four records.
  EXPECT_EQ(learn::unique_programs(records).size(), 2u);
  EXPECT_EQ(learn::unique_programs(records, 1).size(), 1u);

  // A collector pointed at a capture-disabled node reports the failure
  // instead of wedging.
  net::ServeNodeConfig disabled;
  disabled.provenance_capacity = 0;
  NodeHarness no_capture(disabled);
  auto disabled_client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{no_capture.node->endpoint()});
  learn::Collector failing(disabled_client);
  learn::ProvenanceLog sink(8);
  const learn::CollectReport failed = failing.collect(sink);
  EXPECT_EQ(failed.nodes_failed, 1u);
  EXPECT_EQ(failed.fetched, 0u);
}

// ---------------------------------------------------------------------------
// Rollback keeps the incumbent
// ---------------------------------------------------------------------------

TEST(Promoter, RollbackClearsSplitsCountsAndNeverTouchesTheDefault) {
  auto program = progen::build_chstone_like("qsort");
  NodeHarness a;
  NodeHarness b;
  a.node->add_peer(b.node->endpoint());
  auto client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{a.node->endpoint(), b.node->endpoint()});
  ASSERT_TRUE(client->publish(0, "agent", make_test_artifact(program.get(), 1)).is_ok());
  const serve::PolicyArtifact canary = make_test_artifact(program.get(), 2);
  ASSERT_TRUE(client->publish(0, "agent-canary", canary).is_ok());

  learn::PromotionPolicy policy;
  policy.min_canary_samples = 1;
  policy.min_incumbent_samples = 1;
  learn::Promoter promoter(client, policy);
  ASSERT_TRUE(promoter.start_canary("agent", "agent-canary", 0, 0.5).is_ok());
  ASSERT_TRUE(a.node->service().traffic_split("agent").has_value());
  ASSERT_TRUE(b.node->service().traffic_split("agent").has_value());

  // Cohorts where the canary is measurably worse: the verdict must be
  // rollback, broadcast fleet-wide.
  const std::vector<learn::ProvenanceRecord> records = {
      cohort_record("agent", 1, 80, 80),
      cohort_record("agent-canary", 1, 120, 120),
  };
  auto decided = promoter.decide(0, "agent", "agent-canary", canary, records);
  ASSERT_TRUE(decided.is_ok()) << decided.message();
  EXPECT_EQ(decided.value().decision, learn::PromotionDecision::kRollback);
  EXPECT_EQ(decided.value().promoted_version, 0u);

  // Splits are gone everywhere; the decision is counted on every node.
  EXPECT_FALSE(a.node->service().traffic_split("agent").has_value());
  EXPECT_FALSE(b.node->service().traffic_split("agent").has_value());
  for (std::size_t node = 0; node < 2; ++node) {
    auto stats = client->node_stats(node);
    ASSERT_TRUE(stats.is_ok());
    EXPECT_EQ(stats.value().counter("learn_rolled_back"), 1u) << "node " << node;
    EXPECT_EQ(stats.value().counter("learn_promoted"), 0u) << "node " << node;
  }
  // The rolled-back canary never became the default: "agent" still serves
  // version 1 with the incumbent's weights.
  for (const auto& registry : {a.registry, b.registry}) {
    auto artifact = registry->get("agent", 0);
    ASSERT_NE(artifact, nullptr);
    EXPECT_EQ(artifact->version, 1u);
    EXPECT_NE(artifact->policy.flatten(), canary.policy.flatten());
  }
}

// ---------------------------------------------------------------------------
// The full loop, end to end
// ---------------------------------------------------------------------------

TEST(OnlineLoop, ServeCollectFineTuneCanaryPromoteAcrossAGossipingFleet) {
  // Programs chosen so both sides of a 0.5 split are populated: the selector
  // is a pure function of the fingerprint, so membership is known up front.
  constexpr double kFraction = 0.5;
  std::vector<std::unique_ptr<ir::Module>> programs;
  std::size_t shadowed = 0, kept = 0;
  for (std::uint64_t seed = 1; programs.size() < 6 && seed < 64; ++seed) {
    auto m = progen::generate_filtered_program(seed * 7919);
    const bool canary_side = serve::shadow_selected(ir::module_fingerprint(*m), kFraction);
    if (canary_side && shadowed < 3) {
      ++shadowed;
      programs.push_back(std::move(m));
    } else if (!canary_side && kept < 3) {
      ++kept;
      programs.push_back(std::move(m));
    }
  }
  ASSERT_EQ(shadowed, 3u);
  ASSERT_EQ(kept, 3u);

  // A two-node fleet. Node A is the publish owner; node B learns of every
  // artifact purely through its background gossip pulls.
  NodeHarness a;
  net::ServeNodeConfig b_config;
  b_config.gossip.enabled = true;
  b_config.gossip.period = std::chrono::milliseconds(20);
  b_config.gossip.seed = 7;
  NodeHarness b(b_config);
  b.node->add_peer(a.node->endpoint());

  auto client = std::make_shared<serve::RemoteCompileClient>(
      std::vector<net::RemoteEndpoint>{a.node->endpoint(), b.node->endpoint()});
  const auto wait_for_model = [&](const NodeHarness& node, const std::string& name,
                                  std::uint32_t version) {
    for (int i = 0; i < 500; ++i) {
      auto artifact = node.registry->get(name, 0);
      if (artifact != nullptr && artifact->version >= version) return true;
      std::this_thread::sleep_for(10ms);
    }
    return false;
  };

  const serve::PolicyArtifact incumbent = make_test_artifact(programs[0].get(), 11);
  auto published = client->publish(0, "agent", incumbent);
  ASSERT_TRUE(published.is_ok()) << published.message();
  ASSERT_EQ(published.value().version, 1u);
  ASSERT_TRUE(wait_for_model(b, "agent", 1)) << "gossip never delivered the incumbent";

  const auto send_traffic = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      for (const auto& program : programs) {
        serve::CompileRequest request;
        request.module = program.get();
        request.model = "agent";
        auto response = client->compile(request);
        ASSERT_TRUE(response.is_ok()) << response.message();
        const bool expect_canary =
            a.node->service().traffic_split("agent").has_value() &&
            serve::shadow_selected(ir::module_fingerprint(*program), kFraction);
        // The split is a pure function of the fingerprint: every response
        // self-reports exactly the side the selector predicts, and canary
        // responses attribute themselves to the canary model.
        EXPECT_EQ(response.value().provenance.canary, expect_canary);
        EXPECT_EQ(response.value().provenance.model, expect_canary ? "agent-canary" : "agent");
      }
    }
  };

  // Phase 1: incumbent-only traffic fills the provenance logs fleet-wide.
  send_traffic(2);
  learn::Collector collector(client);
  learn::ProvenanceLog collected(256);
  const learn::CollectReport first_drain = collector.collect(collected);
  EXPECT_EQ(first_drain.fetched, 12u);
  EXPECT_EQ(first_drain.nodes_reached, 2u);

  // Phase 2: fine-tune a canary from the incumbent on the collected traffic.
  auto phase1_records = collected.drain(256);
  std::vector<const ir::Module*> corpus = {programs[0].get()};
  learn::OnlineTrainerConfig trainer_config;
  trainer_config.ppo.iterations = 2;
  trainer_config.ppo.steps_per_iteration = 32;
  trainer_config.ppo.seed = 99;
  learn::OnlineTrainer trainer(std::make_shared<runtime::EvalService>(), trainer_config);
  auto tuned = trainer.fine_tune(incumbent, phase1_records, corpus);
  ASSERT_TRUE(tuned.is_ok()) << tuned.message();
  EXPECT_EQ(tuned.value().traffic_programs, 6u);
  EXPECT_EQ(tuned.value().iterations.size(), 2u);

  // Phase 3: publish the canary under its own name and open the shadow
  // split. Gossip delivers the canary to node B; install-hook warm-up means
  // it can serve the moment it lands.
  auto canary_published = client->publish(0, "agent-canary", tuned.value().canary);
  ASSERT_TRUE(canary_published.is_ok()) << canary_published.message();
  ASSERT_TRUE(wait_for_model(b, "agent-canary", 1)) << "gossip never delivered the canary";

  learn::PromotionPolicy policy;
  policy.min_canary_samples = 3;
  policy.min_incumbent_samples = 3;
  // Generous gates: this test pins the machinery (split, cohorts, publish,
  // broadcast); the decision-boundary cases are unit-tested above.
  policy.regret_margin = 1000.0;
  policy.calibration_slack = 1000.0;
  learn::Promoter promoter(client, policy);
  ASSERT_TRUE(promoter.start_canary("agent", "agent-canary", 0, kFraction).is_ok());

  // Phase 4: shadow traffic. Per-response canary attribution is asserted
  // inside send_traffic; the per-(model, version) counters must agree.
  send_traffic(2);
  learn::ProvenanceLog shadow_log(256);
  EXPECT_EQ(collector.collect(shadow_log).fetched, 12u);
  auto shadow_records = shadow_log.drain(256);
  std::size_t canary_records = 0;
  for (const auto& record : shadow_records) canary_records += record.canary ? 1 : 0;
  EXPECT_EQ(canary_records, 6u);  // 3 shadowed programs x 2 rounds

  serve::FleetMonitor monitor(client);
  serve::FleetStats fleet = monitor.poll();
  EXPECT_EQ(fleet.reachable, 2u);
  std::uint64_t canary_completed = 0, incumbent_completed = 0;
  for (const auto& m : fleet.per_model) {
    if (m.model == "agent-canary") canary_completed += m.completed;
    if (m.model == "agent") incumbent_completed += m.completed;
  }
  EXPECT_EQ(canary_completed, 6u);
  EXPECT_EQ(incumbent_completed, 18u);  // 12 phase-1 + 6 unshadowed phase-4

  // Phase 5: the verdict. The Promoter's decision must match an independent
  // evaluation of the same records, and promotion means the canary weights
  // are republished under the base name and the split is retired fleet-wide.
  const auto expected =
      learn::evaluate_promotion(shadow_records, "agent", "agent-canary", policy);
  auto decided = promoter.decide(0, "agent", "agent-canary", tuned.value().canary,
                                 shadow_records);
  ASSERT_TRUE(decided.is_ok()) << decided.message();
  EXPECT_EQ(decided.value().decision, expected.decision);
  ASSERT_EQ(decided.value().decision, learn::PromotionDecision::kPromote);
  EXPECT_EQ(decided.value().promoted_version, 2u);

  EXPECT_FALSE(a.node->service().traffic_split("agent").has_value());
  EXPECT_FALSE(b.node->service().traffic_split("agent").has_value());

  // The promoted weights are the fleet default under the base name.
  auto promoted_a = a.registry->get("agent", 0);
  ASSERT_NE(promoted_a, nullptr);
  EXPECT_EQ(promoted_a->version, 2u);
  EXPECT_EQ(promoted_a->policy.flatten(), tuned.value().canary.policy.flatten());
  ASSERT_TRUE(wait_for_model(b, "agent", 2)) << "promotion never reached node B";
  auto promoted_b = b.registry->get("agent", 0);
  EXPECT_EQ(promoted_b->policy.flatten(), tuned.value().canary.policy.flatten());

  // The decision is observable everywhere: kStats counters, the kMetrics
  // text scrape, and the merged fleet view.
  for (std::size_t node = 0; node < 2; ++node) {
    auto stats = client->node_stats(node);
    ASSERT_TRUE(stats.is_ok());
    EXPECT_EQ(stats.value().counter("learn_promoted"), 1u) << "node " << node;
    EXPECT_EQ(stats.value().counter("learn_rolled_back"), 0u) << "node " << node;
  }
  auto scrape = client->node_metrics(0);
  ASSERT_TRUE(scrape.is_ok());
  EXPECT_NE(scrape.value().find("learn_promoted 1"), std::string::npos) << scrape.value();
  fleet = monitor.poll();
  EXPECT_EQ(fleet.learn_promoted, 2u);  // one decision, counted on each node
  EXPECT_EQ(fleet.learn_rolled_back, 0u);
  EXPECT_NE(serve::fleet_summary(fleet).find("promoted=2"), std::string::npos);
}

}  // namespace
}  // namespace autophase
