#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ir/printer.hpp"
#include "passes/pass.hpp"
#include "progen/chstone_like.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/batcher.hpp"
#include "serve/compile_service.hpp"
#include "serve/model_registry.hpp"
#include "serve/serialization.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"
#include "support/thread_pool.hpp"

namespace autophase::serve {
namespace {

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

ml::Mlp random_mlp(std::size_t input, std::size_t output, std::uint64_t seed) {
  Rng rng(seed);
  ml::MlpConfig c;
  c.input = input;
  c.hidden = {8, 8};
  c.output = output;
  return ml::Mlp(c, rng);
}

/// Histogram-only observations keep serve steps cheap (no feature
/// extraction) while exercising the full decode/measure path.
rl::EnvConfig tiny_env_config() {
  rl::EnvConfig cfg;
  cfg.episode_length = 4;
  cfg.observation = rl::ObservationMode::kActionHistogram;
  return cfg;
}

/// Artifact exported from a freshly initialised PPO trainer (deterministic
/// per seed). iterations = 0 skips training — serving only needs weights.
PolicyArtifact make_test_artifact(const ir::Module* program, const rl::EnvConfig& cfg,
                                  std::uint64_t seed) {
  rl::PhaseOrderEnv env({program}, cfg);
  rl::PpoConfig ppo;
  ppo.hidden = {12};
  ppo.seed = seed;
  rl::PpoTrainer trainer(env, ppo);
  return make_artifact(trainer.export_policy(), cfg);
}

ml::RandomForest fitted_forest(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 60; ++i) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    x.push_back({a, b, rng.uniform()});
    y.push_back(a + b > 1.0 ? 1 : 0);
  }
  ml::ForestConfig cfg;
  cfg.num_trees = 5;
  cfg.max_depth = 4;
  cfg.seed = seed;
  ml::RandomForest forest(cfg);
  forest.fit(x, y);
  return forest;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Serialization round trips
// ---------------------------------------------------------------------------

TEST(ServeSerialization, MlpRoundTripBitExact) {
  const ml::Mlp net = random_mlp(7, 5, 42);
  ByteWriter w;
  write_mlp(w, net);
  ByteReader r(w.bytes());
  auto loaded = read_mlp(r);
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(net.flatten(), loaded.value().flatten());  // bit-exact doubles
  EXPECT_EQ(net.config().hidden, loaded.value().config().hidden);
  ByteWriter again;
  write_mlp(again, loaded.value());
  EXPECT_EQ(w.bytes(), again.bytes());
}

TEST(ServeSerialization, ForestRoundTripBitExact) {
  const ml::RandomForest forest = fitted_forest(7);
  ByteWriter w;
  write_forest(w, forest);
  ByteReader r(w.bytes());
  auto loaded = read_forest(r);
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  EXPECT_EQ(forest.feature_importances(), loaded.value().feature_importances());
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> row = {rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_EQ(forest.predict(row), loaded.value().predict(row));
  }
  ByteWriter again;
  write_forest(again, loaded.value());
  EXPECT_EQ(w.bytes(), again.bytes());
}

TEST(ServeSerialization, NormalizerRoundTripBitExact) {
  const FeatureNormalizer fitted =
      FeatureNormalizer::fit({{1.0, 2.0, 3.0}, {2.0, 0.0, 3.5}, {0.5, 4.0, -1.0}});
  ByteWriter w;
  write_normalizer(w, fitted);
  ByteReader r(w.bytes());
  auto loaded = read_normalizer(r);
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  EXPECT_EQ(fitted.mean, loaded.value().mean);
  EXPECT_EQ(fitted.inv_std, loaded.value().inv_std);
}

TEST(ServeSerialization, ArtifactRoundTripStableBytes) {
  auto m = progen::build_chstone_like("sha");
  PolicyArtifact artifact = make_test_artifact(m.get(), tiny_env_config(), 11);
  artifact.name = "ppo-sha";
  artifact.version = 3;
  artifact.forest = fitted_forest(5);
  std::vector<std::vector<double>> rows(3, std::vector<double>(artifact.policy.config().input));
  Rng rng(6);
  for (auto& row : rows) {
    for (double& v : row) v = rng.uniform();
  }
  artifact.normalizer = FeatureNormalizer::fit(rows);

  const std::string bytes = serialize_artifact(artifact);
  auto loaded = deserialize_artifact(bytes);
  ASSERT_TRUE(loaded.is_ok()) << loaded.message();
  const PolicyArtifact& got = loaded.value();
  EXPECT_EQ(got.name, "ppo-sha");
  EXPECT_EQ(got.version, 3u);
  EXPECT_EQ(got.action_arity, artifact.action_arity);
  EXPECT_EQ(got.policy.flatten(), artifact.policy.flatten());
  ASSERT_TRUE(got.value.has_value());
  EXPECT_EQ(got.value->flatten(), artifact.value->flatten());
  ASSERT_TRUE(got.forest.has_value());
  EXPECT_EQ(got.normalizer.mean, artifact.normalizer.mean);
  // Serialize-of-deserialize is byte-identical: the format is canonical.
  EXPECT_EQ(serialize_artifact(got), bytes);
}

TEST(ServeSerialization, CorruptionIsRejected) {
  auto m = progen::build_chstone_like("qsort");
  PolicyArtifact artifact = make_test_artifact(m.get(), tiny_env_config(), 2);
  artifact.name = "x";
  std::string bytes = serialize_artifact(artifact);

  EXPECT_FALSE(deserialize_artifact("not a model").is_ok());
  EXPECT_FALSE(deserialize_artifact(std::string_view(bytes).substr(0, bytes.size() / 2)).is_ok());
  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x5a);
  const auto result = deserialize_artifact(flipped);
  EXPECT_FALSE(result.is_ok());
}

TEST(ServeSerialization, WellFramedButInvalidArtifactsRejected) {
  // The checksum only catches accidental corruption; indices that would read
  // out of bounds at serve time must be rejected at the trust boundary.
  auto m = progen::build_chstone_like("sha");
  const PolicyArtifact base = make_test_artifact(m.get(), tiny_env_config(), 8);

  PolicyArtifact bad_feature = base;
  bad_feature.name = "x";
  bad_feature.spec.feature_subset = {999};
  EXPECT_FALSE(deserialize_artifact(serialize_artifact(bad_feature)).is_ok());

  PolicyArtifact bad_action = base;
  bad_action.name = "x";
  bad_action.spec.action_subset = {-1};
  EXPECT_FALSE(deserialize_artifact(serialize_artifact(bad_action)).is_ok());

  PolicyArtifact bad_normalizer = base;
  bad_normalizer.name = "x";
  bad_normalizer.normalizer = FeatureNormalizer::fit({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_FALSE(deserialize_artifact(serialize_artifact(bad_normalizer)).is_ok());
}

// ---------------------------------------------------------------------------
// ModelRegistry
// ---------------------------------------------------------------------------

TEST(ServeRegistry, PublishAssignsMonotonicVersions) {
  auto m = progen::build_chstone_like("sha");
  ModelRegistry registry;
  EXPECT_EQ(registry.publish("agent", make_test_artifact(m.get(), tiny_env_config(), 1)), 1u);
  EXPECT_EQ(registry.publish("agent", make_test_artifact(m.get(), tiny_env_config(), 2)), 2u);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.get("agent")->version, 2u);        // latest
  EXPECT_EQ(registry.get("agent", 1)->version, 1u);     // pinned
  EXPECT_EQ(registry.get("agent", 9), nullptr);
  EXPECT_EQ(registry.get("missing"), nullptr);
}

TEST(ServeRegistry, ExportImportIntoFreshRegistry) {
  auto m = progen::build_chstone_like("gsm");
  ModelRegistry trainer_side;
  trainer_side.publish("agent", make_test_artifact(m.get(), tiny_env_config(), 5));
  const auto blob = trainer_side.export_model("agent");
  ASSERT_TRUE(blob.is_ok()) << blob.message();

  auto server_side = std::make_shared<ModelRegistry>();
  const auto key = server_side->import_model(blob.value());
  ASSERT_TRUE(key.is_ok()) << key.message();
  EXPECT_EQ(key.value().name, "agent");
  EXPECT_EQ(key.value().version, 1u);
  EXPECT_EQ(server_side->get("agent")->policy.flatten(),
            trainer_side.get("agent")->policy.flatten());

  // The reloaded model serves the exact sequence the original would.
  CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  CompileService service(server_side, nullptr, {.workers = 0});
  const auto served = service.compile_sync(request);
  ASSERT_TRUE(served.is_ok()) << served.message();
  runtime::EvalService eval;
  const auto reference =
      serve_compile(*trainer_side.get("agent"), request, eval, nullptr);
  ASSERT_TRUE(reference.is_ok());
  EXPECT_EQ(served.value().provenance.sequence, reference.value().provenance.sequence);
}

TEST(ServeRegistry, FileRoundTrip) {
  auto m = progen::build_chstone_like("sha");
  ModelRegistry registry;
  registry.publish("agent", make_test_artifact(m.get(), tiny_env_config(), 9));
  const std::string path = temp_path("autophase_test_model.bin");
  ASSERT_TRUE(registry.export_file("agent", 0, path).is_ok());
  ModelRegistry fresh;
  const auto key = fresh.import_file(path);
  ASSERT_TRUE(key.is_ok()) << key.message();
  EXPECT_EQ(fresh.get("agent")->policy.flatten(), registry.get("agent")->policy.flatten());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// PolicyBatcher
// ---------------------------------------------------------------------------

TEST(ServeBatcher, BatchedLogitsBitIdenticalToSingleRow) {
  auto m = progen::build_chstone_like("sha");
  const PolicyArtifact artifact = make_test_artifact(m.get(), tiny_env_config(), 21);
  const std::size_t input = artifact.policy.config().input;

  Rng rng(4);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 16; ++i) {
    std::vector<double> row(input);
    for (double& v : row) v = rng.uniform();
    rows.push_back(std::move(row));
  }
  // Reference: each row alone through the raw net.
  std::vector<std::vector<double>> expected;
  for (const auto& row : rows) {
    const ml::Matrix out = artifact.policy.forward_batch({row});
    expected.emplace_back(out.row(0), out.row(0) + out.cols());
  }

  PolicyBatcher batcher({.max_batch = 8, .window = std::chrono::microseconds(500)});
  std::vector<std::vector<double>> got(rows.size());
  ThreadPool pool(4);
  pool.parallel_for(rows.size(),
                    [&](std::size_t i) { got[i] = batcher.infer_many(artifact, {rows[i]})[0]; });
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(got[i], expected[i]) << "row " << i;
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.rows, rows.size());
  EXPECT_GE(stats.batches, 1u);
}

// ---------------------------------------------------------------------------
// CompileService
// ---------------------------------------------------------------------------

TEST(ServeCompile, SyncGreedyDeterministicWithinBudget) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 31));
  CompileService service(registry, nullptr, {.workers = 0});

  CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  request.objective = Objective::kFixedBudget;
  request.pass_budget = 3;
  auto first = service.compile_sync(request);
  ASSERT_TRUE(first.is_ok()) << first.message();
  EXPECT_LE(first.value().provenance.sequence.size(), 3u);
  EXPECT_GT(first.value().provenance.measured_cycles, 0u);
  EXPECT_GT(first.value().provenance.baseline_cycles, 0u);
  EXPECT_EQ(first.value().provenance.model, "agent");
  EXPECT_EQ(first.value().provenance.version, 1u);
  ASSERT_NE(first.value().module, nullptr);

  const auto second = service.compile_sync(request);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().provenance.sequence, second.value().provenance.sequence);
  EXPECT_EQ(first.value().provenance.measured_cycles, second.value().provenance.measured_cycles);
}

TEST(ServeCompile, CyclesTimesAreaObjectiveReportsArea) {
  auto m = progen::build_chstone_like("qsort");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 13));
  CompileService service(registry, nullptr, {.workers = 0});

  CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  request.objective = Objective::kCyclesTimesArea;
  request.beam_width = 2;
  const auto response = service.compile_sync(request);
  ASSERT_TRUE(response.is_ok()) << response.message();
  EXPECT_GT(response.value().provenance.measured_area, 0.0);
  EXPECT_GE(response.value().provenance.beams_evaluated, 1);
}

TEST(ServeCompile, HostileBeamWidthIsClampedByTheDecodeCore) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 31));
  CompileService service(registry, nullptr, {.workers = 0});

  // Unclamped, the third step of a 45-action policy would clone 91,125
  // modules; the core cuts every step to 64 candidates.
  CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  request.beam_width = std::numeric_limits<int>::max();
  const auto response = service.compile_sync(request);
  ASSERT_TRUE(response.is_ok()) << response.message();
  EXPECT_GE(response.value().provenance.beams_evaluated, 1);
  EXPECT_LE(response.value().provenance.beams_evaluated, 64);
}

TEST(ServeCompile, OversizedPassBudgetFailsBeforeDecoding) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 31));
  auto eval = std::make_shared<runtime::EvalService>();
  CompileService service(registry, eval, {.workers = 0});

  CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  request.objective = Objective::kFixedBudget;
  for (const int budget : {kMaxDecodeSteps + 1, std::numeric_limits<int>::max()}) {
    request.pass_budget = budget;
    const auto response = service.compile_sync(request);
    ASSERT_FALSE(response.is_ok()) << budget;
    EXPECT_NE(response.message().find("pass_budget"), std::string::npos) << response.message();
  }
  // Rejected up front: not one measurement ran.
  EXPECT_EQ(eval->stats().hits + eval->stats().misses, 0u);

  // Only the budget objective reads the field, so other objectives still serve.
  request.objective = Objective::kCycles;
  EXPECT_TRUE(service.compile_sync(request).is_ok());
}

TEST(ServeCompile, ConcurrentServingMatchesSingleThreadedBitExactly) {
  auto sha = progen::build_chstone_like("sha");
  auto gsm = progen::build_chstone_like("gsm");
  auto qsort = progen::build_chstone_like("qsort");
  const std::vector<const ir::Module*> modules = {sha.get(), gsm.get(), qsort.get()};

  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(sha.get(), tiny_env_config(), 41));
  auto eval = std::make_shared<runtime::EvalService>();
  CompileService service(registry, eval, {.workers = 4, .queue_capacity = 32});

  std::vector<CompileRequest> requests;
  for (int i = 0; i < 10; ++i) {
    CompileRequest request;
    request.module = modules[static_cast<std::size_t>(i) % modules.size()];
    request.model = "agent";
    request.objective = i % 2 == 0 ? Objective::kCycles : Objective::kFixedBudget;
    request.pass_budget = 2 + i % 3;
    request.beam_width = 1 + i % 2;
    request.priority = i % 4;
    requests.push_back(request);
  }

  // Single-threaded reference answers first.
  std::vector<Provenance> expected;
  for (const auto& request : requests) {
    auto response = service.compile_sync(request);
    ASSERT_TRUE(response.is_ok()) << response.message();
    expected.push_back(std::move(response.value().provenance));
  }

  // Now the same ten requests through the concurrent queue+batcher path.
  std::vector<CompileService::ResponseFuture> futures;
  for (const auto& request : requests) futures.push_back(service.submit(request));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.is_ok()) << response.message();
    EXPECT_EQ(response.value().provenance.sequence, expected[i].sequence) << "request " << i;
    EXPECT_EQ(response.value().provenance.measured_cycles, expected[i].measured_cycles);
    EXPECT_EQ(response.value().provenance.predicted_cycles, expected[i].predicted_cycles);
  }

  const ServeMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.completed, futures.size());
  EXPECT_EQ(metrics.failed, 0u);
  EXPECT_GT(metrics.batcher.rows, 0u);
  EXPECT_GT(metrics.latency.p95_ms, 0.0);
  EXPECT_GE(metrics.latency.p95_ms, metrics.latency.p50_ms);
}

TEST(ServeCompile, DeterministicPerModelVersionUnderConcurrency) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 1));
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 2));
  CompileService service(registry, nullptr, {.workers = 4});

  CompileRequest v1;
  v1.module = m.get();
  v1.model = "agent";
  v1.version = 1;
  CompileRequest v2 = v1;
  v2.version = 2;

  const auto expected_v1 = service.compile_sync(v1);
  const auto expected_v2 = service.compile_sync(v2);
  ASSERT_TRUE(expected_v1.is_ok() && expected_v2.is_ok());

  std::vector<CompileService::ResponseFuture> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.submit(i % 2 == 0 ? v1 : v2));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.is_ok()) << response.message();
    const auto& expected = i % 2 == 0 ? expected_v1 : expected_v2;
    EXPECT_EQ(response.value().provenance.version, i % 2 == 0 ? 1u : 2u);
    EXPECT_EQ(response.value().provenance.sequence, expected.value().provenance.sequence);
  }
}

TEST(ServeCompile, UnknownModelFailsGracefully) {
  auto m = progen::build_chstone_like("sha");
  CompileService service(std::make_shared<ModelRegistry>(), nullptr, {.workers = 1});
  CompileRequest request;
  request.module = m.get();
  request.model = "nope";
  auto response = service.submit(request).get();
  EXPECT_FALSE(response.is_ok());
  EXPECT_EQ(service.metrics().failed, 1u);
}

TEST(ServeCompile, BackpressureBouncesOverflowDeterministically) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 3));
  // Zero workers: nothing drains, so queue occupancy is fully deterministic.
  CompileService service(registry, nullptr, {.workers = 0, .queue_capacity = 3});

  CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  std::vector<CompileService::ResponseFuture> futures;
  for (int i = 0; i < 3; ++i) {
    auto f = service.try_submit(request);
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  EXPECT_EQ(service.queue_depth(), 3u);
  EXPECT_FALSE(service.try_submit(request).has_value());  // overflow bounced
  EXPECT_EQ(service.metrics().rejected, 1u);

  // Destruction with queued work cancels every pending promise.
  service.shutdown();
  for (auto& f : futures) {
    auto response = f.get();
    EXPECT_FALSE(response.is_ok());
    EXPECT_NE(response.message().find("cancelled"), std::string::npos);
  }
  EXPECT_EQ(service.metrics().cancelled, 3u);
  // Post-shutdown submissions resolve immediately with a rejection.
  EXPECT_FALSE(service.submit(request).get().is_ok());
}

// ---------------------------------------------------------------------------
// Overload control: saturation shedding + queued-deadline expiry
// ---------------------------------------------------------------------------

TEST(ServeOverload, SaturationShedsTheCheapestJobForAHigherPriorityArrival) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 3));
  // Zero workers: nothing drains, so occupancy and victim choice are fully
  // deterministic.
  CompileService service(registry, nullptr,
                         {.workers = 0, .queue_capacity = 2, .shed_on_saturation = true});

  CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  auto oldest = service.submit(request);  // priority 0, oldest — survives
  auto victim = service.submit(request);  // priority 0, youngest — the victim
  EXPECT_EQ(service.queue_depth(), 2u);

  // A higher-priority arrival on a saturated queue sheds the cheapest job to
  // retry and takes its slot; the submitter never blocks.
  CompileRequest urgent = request;
  urgent.priority = 5;
  auto kept = service.submit(urgent);

  ASSERT_EQ(victim.wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "the shed future must resolve immediately, never hang";
  auto shed = victim.get();
  ASSERT_FALSE(shed.is_ok());
  EXPECT_TRUE(is_overloaded(shed.status())) << shed.message();
  EXPECT_EQ(service.queue_depth(), 2u);  // slot handed over, not grown
  EXPECT_EQ(service.metrics().shed_overload, 1u);

  // The survivors resolve on shutdown — no stranded promise anywhere.
  service.shutdown();
  for (auto* f : {&oldest, &kept}) {
    auto response = f->get();
    EXPECT_FALSE(response.is_ok());
    EXPECT_NE(response.message().find("cancelled"), std::string::npos);
  }
}

TEST(ServeOverload, LowerPriorityArrivalBouncesWithATypedOverloadStatus) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 3));
  CompileService service(registry, nullptr,
                         {.workers = 0, .queue_capacity = 1, .shed_on_saturation = true});

  CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  request.priority = 5;
  auto queued = service.submit(request);
  EXPECT_EQ(service.queue_depth(), 1u);

  // An arrival that outranks nothing queued bounces itself — immediately,
  // with the typed "overloaded: " status, never the blocking wait.
  CompileRequest low = request;
  low.priority = 0;
  auto bounced = service.submit(low);
  ASSERT_EQ(bounced.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto response = bounced.get();
  ASSERT_FALSE(response.is_ok());
  EXPECT_TRUE(is_overloaded(response.status())) << response.message();
  EXPECT_NE(response.message().find("queue at capacity"), std::string::npos);
  EXPECT_EQ(service.queue_depth(), 1u);
  EXPECT_EQ(service.metrics().shed_overload, 1u);
  EXPECT_EQ(service.metrics().rejected, 1u);

  service.shutdown();
  EXPECT_FALSE(queued.get().is_ok());
}

TEST(ServeOverload, DeadlineExpiredWhileQueuedIsShedAtDequeueNotServed) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 3));
  CompileService service(registry, nullptr, {.workers = 1, .queue_capacity = 8});

  // A deadline already in the past at admission: the worker must shed it at
  // dequeue (typed overload status) instead of burning the decode on an
  // answer nobody is waiting for.
  CompileRequest expired;
  expired.module = m.get();
  expired.model = "agent";
  expired.deadline_at = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto shed = service.submit(expired).get();
  ASSERT_FALSE(shed.is_ok());
  EXPECT_TRUE(is_overloaded(shed.status())) << shed.message();
  EXPECT_NE(shed.message().find("deadline expired"), std::string::npos);
  EXPECT_EQ(service.metrics().shed_deadline, 1u);

  // The worker is alive and well afterwards: a normal request (and one with
  // generous headroom, exercising the admission stamp) both complete.
  CompileRequest normal;
  normal.module = m.get();
  normal.model = "agent";
  auto ok = service.submit(normal).get();
  EXPECT_TRUE(ok.is_ok()) << ok.message();
  CompileRequest roomy = normal;
  roomy.deadline_ms = 60'000;
  auto ok2 = service.submit(roomy).get();
  EXPECT_TRUE(ok2.is_ok()) << ok2.message();
  EXPECT_EQ(service.metrics().shed_deadline, 1u);  // headroom was honoured
}

TEST(ServeCompile, DrainingShutdownCompletesQueuedWork) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 6));
  std::vector<CompileService::ResponseFuture> futures;
  {
    CompileService service(registry, nullptr, {.workers = 2, .queue_capacity = 16});
    CompileRequest request;
    request.module = m.get();
    request.model = "agent";
    request.objective = Objective::kFixedBudget;
    request.pass_budget = 2;
    for (int i = 0; i < 6; ++i) futures.push_back(service.submit(request));
    // Destructor drains: queued work finishes before members tear down.
  }
  for (auto& f : futures) {
    auto response = f.get();
    EXPECT_TRUE(response.is_ok()) << response.message();
  }
}

// ---------------------------------------------------------------------------
// ThreadPool shutdown ordering (the substrate CompileService relies on)
// ---------------------------------------------------------------------------

TEST(ServeThreadPool, CancelBreaksQueuedPromisesBeforeJoin) {
  ThreadPool pool(1);
  std::promise<void> gate;
  pool.submit([&] { gate.get_future().wait(); });  // occupies the only worker
  std::atomic<int> ran{0};
  std::vector<std::future<void>> queued;
  for (int i = 0; i < 4; ++i) queued.push_back(pool.submit([&] { ++ran; }));

  std::thread stopper([&] { pool.shutdown(ThreadPool::ShutdownMode::kCancel); });
  // Cancelled futures break *before* the join completes — observable while
  // the worker is still blocked inside its running task.
  for (auto& f : queued) f.wait();
  gate.set_value();
  stopper.join();
  EXPECT_EQ(ran.load(), 0);
  for (auto& f : queued) EXPECT_THROW(f.get(), std::future_error);
}

TEST(ServeThreadPool, DrainRunsEveryQueuedTask) {
  ThreadPool pool(1);
  std::promise<void> gate;
  pool.submit([&] { gate.get_future().wait(); });
  std::atomic<int> ran{0};
  std::vector<std::future<void>> queued;
  for (int i = 0; i < 4; ++i) queued.push_back(pool.submit([&] { ++ran; }));

  std::thread stopper([&] { pool.shutdown(ThreadPool::ShutdownMode::kDrain); });
  gate.set_value();
  stopper.join();
  EXPECT_EQ(ran.load(), 4);
  for (auto& f : queued) EXPECT_NO_THROW(f.get());
}

TEST(ServeThreadPool, SubmitAfterShutdownBreaksPromise) {
  ThreadPool pool(2);
  pool.shutdown();
  auto f = pool.submit([] {});
  EXPECT_THROW(f.get(), std::future_error);
}

// ---------------------------------------------------------------------------
// Artifact format v2: optional training-corpus baseline section
// ---------------------------------------------------------------------------

TEST(ServeSerialization, ArtifactWithoutBaselinesStaysFormatV1) {
  auto m = progen::build_chstone_like("sha");
  const PolicyArtifact artifact = make_test_artifact(m.get(), tiny_env_config(), 3);
  ASSERT_TRUE(artifact.baselines.empty());
  const std::string bytes = serialize_artifact(artifact);
  // Bytes 4..8 are the little-endian format version: no optional section
  // means the blob is written as v1, bit-identical to pre-v2 writers.
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 1);
  auto decoded = deserialize_artifact(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  EXPECT_TRUE(decoded.value().baselines.empty());
}

TEST(ServeSerialization, BaselineSectionRoundTripsAsFormatV2) {
  auto m = progen::build_chstone_like("sha");
  PolicyArtifact artifact = make_test_artifact(m.get(), tiny_env_config(), 3);
  artifact.baselines = {{0x1234abcdu, 777, 1.5}, {0xfeedbeefu, 42, 0.25}};
  artifact.baselines_config = 0xabcdef12u;
  const std::string bytes = serialize_artifact(artifact);
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 2);
  auto decoded = deserialize_artifact(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  EXPECT_EQ(decoded.value().baselines_config, 0xabcdef12u);
  ASSERT_EQ(decoded.value().baselines.size(), 2u);
  EXPECT_EQ(decoded.value().baselines[0].fingerprint, 0x1234abcdu);
  EXPECT_EQ(decoded.value().baselines[0].cycles, 777u);
  EXPECT_EQ(decoded.value().baselines[0].area, 1.5);
  EXPECT_EQ(decoded.value().baselines[1].fingerprint, 0xfeedbeefu);

  // Corrupting bytes inside the section fails the frame checksum cleanly.
  std::string flipped = bytes;
  flipped[flipped.size() - 12] = static_cast<char>(flipped[flipped.size() - 12] ^ 0x5a);
  EXPECT_FALSE(deserialize_artifact(flipped).is_ok());
  // Truncating inside the section table is caught too.
  EXPECT_FALSE(
      deserialize_artifact(std::string_view(bytes).substr(0, bytes.size() - 20)).is_ok());
}

TEST(ServeSerialization, V2RegistryImportPreservesBaselines) {
  auto m = progen::build_chstone_like("qsort");
  PolicyArtifact artifact = make_test_artifact(m.get(), tiny_env_config(), 5);
  artifact.baselines = {{99, 1000, 2.0}};
  ModelRegistry a;
  a.publish("warm", std::move(artifact));
  const auto blob = a.export_model("warm", 1);
  ASSERT_TRUE(blob.is_ok());
  ModelRegistry b;
  const auto key = b.import_model(blob.value());
  ASSERT_TRUE(key.is_ok()) << key.message();
  ASSERT_EQ(b.get("warm", 1)->baselines.size(), 1u);
  EXPECT_EQ(b.get("warm", 1)->baselines[0].cycles, 1000u);
  // Identity: re-export is bit-identical, baselines included.
  EXPECT_EQ(b.export_model("warm", 1).value(), blob.value());
}

// ---------------------------------------------------------------------------
// Model warm-up
// ---------------------------------------------------------------------------

TEST(ServeWarmup, EvalPrimeInstallsExactlyOnceAndServesHits) {
  runtime::EvalService eval;
  auto m = progen::build_chstone_like("sha");
  const std::uint64_t fp = ir::module_fingerprint(*m);
  EXPECT_TRUE(eval.prime(fp, {1234, 9.5}));
  EXPECT_FALSE(eval.prime(fp, {999, 1.0}));  // never overwrites

  bool sampled = true;
  const runtime::Measure measure = eval.measure(*m, &sampled);
  EXPECT_FALSE(sampled);  // served from the primed entry, no simulator run
  EXPECT_EQ(measure.cycles, 1234u);
  EXPECT_EQ(measure.area, 9.5);
  const runtime::EvalStats stats = eval.stats();
  EXPECT_EQ(stats.primed, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(eval.samples(), 0u);
}

TEST(ServeWarmup, PrimeNeverOverwritesMeasuredEntries) {
  runtime::EvalService eval;
  auto m = progen::build_chstone_like("gsm");
  const runtime::Measure measured = eval.measure(*m);
  EXPECT_FALSE(eval.prime(ir::module_fingerprint(*m), {1, 1.0}));
  EXPECT_EQ(eval.measure(*m).cycles, measured.cycles);
  EXPECT_EQ(eval.stats().primed, 0u);
}

TEST(ServeWarmup, WarmUpPrimesCacheFromArtifactBaselines) {
  auto sha = progen::build_chstone_like("sha");
  auto qsort = progen::build_chstone_like("qsort");

  // Trainer side: measure the corpus and attach the stamped section.
  runtime::EvalService trainer_eval;
  PolicyArtifact artifact = make_test_artifact(sha.get(), tiny_env_config(), 7);
  attach_baselines(artifact, {sha.get(), qsort.get()}, trainer_eval);
  ASSERT_EQ(artifact.baselines.size(), 2u);
  EXPECT_EQ(artifact.baselines_config, trainer_eval.config_fingerprint());

  // Serving side: a cold eval service, warmed from the artifact alone.
  runtime::EvalService serving_eval;
  const WarmupReport report = warm_up(artifact, serving_eval);
  EXPECT_TRUE(report.forwards_run);
  EXPECT_EQ(report.baselines, 2u);
  EXPECT_EQ(report.primed, 2u);

  // First requests for corpus programs hit the primed entries: zero samples.
  bool sampled = true;
  EXPECT_EQ(serving_eval.measure(*sha, &sampled).cycles, trainer_eval.measure(*sha).cycles);
  EXPECT_FALSE(sampled);
  EXPECT_EQ(serving_eval.measure(*qsort).cycles, trainer_eval.measure(*qsort).cycles);
  EXPECT_EQ(serving_eval.samples(), 0u);

  // Idempotent: warming again primes nothing new.
  EXPECT_EQ(warm_up(artifact, serving_eval).primed, 0u);
}

TEST(ServeWarmup, MismatchedEvalConfigRefusesToPrime) {
  auto sha = progen::build_chstone_like("sha");
  runtime::EvalService trainer_eval;  // default constraints
  PolicyArtifact artifact = make_test_artifact(sha.get(), tiny_env_config(), 7);
  attach_baselines(artifact, {sha.get()}, trainer_eval);

  // A serving node with different HLS resources measures different cycle
  // counts: the trainer's baselines must not land in its cache.
  runtime::EvalServiceConfig other;
  other.constraints.multipliers = 7;
  runtime::EvalService serving_eval(other);
  ASSERT_NE(serving_eval.config_fingerprint(), trainer_eval.config_fingerprint());
  const WarmupReport report = warm_up(artifact, serving_eval);
  EXPECT_TRUE(report.config_mismatch);
  EXPECT_EQ(report.primed, 0u);
  EXPECT_EQ(serving_eval.stats().primed, 0u);
  EXPECT_TRUE(report.forwards_run);  // the weight pre-fault still happened
}

TEST(ServeWarmup, V1ArtifactSkipsPrimingCleanly) {
  auto m = progen::build_chstone_like("sha");
  const PolicyArtifact artifact = make_test_artifact(m.get(), tiny_env_config(), 9);
  runtime::EvalService eval;
  const WarmupReport report = warm_up(artifact, eval);
  EXPECT_TRUE(report.forwards_run);
  EXPECT_EQ(report.baselines, 0u);
  EXPECT_EQ(report.primed, 0u);
  EXPECT_EQ(eval.stats().primed, 0u);
}

TEST(ServeWarmup, RegistryInstallHookFiresOnPublishAndImport) {
  auto m = progen::build_chstone_like("sha");
  ModelRegistry registry;
  std::vector<std::pair<std::string, std::uint32_t>> installed;
  registry.set_install_hook(
      [&](const std::shared_ptr<const PolicyArtifact>& artifact) {
        installed.emplace_back(artifact->name, artifact->version);
      });
  registry.publish("hooked", make_test_artifact(m.get(), tiny_env_config(), 4));
  ASSERT_EQ(installed.size(), 1u);
  EXPECT_EQ(installed[0], (std::pair<std::string, std::uint32_t>{"hooked", 1}));

  const auto blob = registry.export_model("hooked", 1);
  ASSERT_TRUE(blob.is_ok());
  ASSERT_TRUE(registry.import_model(blob.value()).is_ok());
  ASSERT_EQ(installed.size(), 2u);  // idempotent re-import still re-warms
  EXPECT_EQ(installed[1], (std::pair<std::string, std::uint32_t>{"hooked", 1}));
}

TEST(ServeWarmup, CompileServiceWarmUpModelResolvesRegistry) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  PolicyArtifact artifact = make_test_artifact(m.get(), tiny_env_config(), 6);
  artifact.baselines = {{ir::module_fingerprint(*m), 555, 1.0}};
  registry->publish("warm", std::move(artifact));

  CompileServiceConfig config;
  config.workers = 0;  // inline-only; no queue needed here
  CompileService service(registry, nullptr, config);
  const auto report = service.warm_up_model("warm");
  ASSERT_TRUE(report.is_ok()) << report.message();
  EXPECT_EQ(report.value().primed, 1u);
  EXPECT_FALSE(service.warm_up_model("missing").is_ok());
  EXPECT_EQ(service.eval_service()->stats().primed, 1u);
}

// ---------------------------------------------------------------------------
// Per-model-version / per-objective metrics
// ---------------------------------------------------------------------------

TEST(ServeMetricsBreakdown, PerModelPerObjectiveCountsAndReservoir) {
  auto sha = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(sha.get(), tiny_env_config(), 1));
  registry->publish("agent", make_test_artifact(sha.get(), tiny_env_config(), 2));

  CompileServiceConfig config;
  config.workers = 2;
  CompileService service(registry, nullptr, config);

  const auto submit = [&](std::int64_t version, Objective objective) {
    CompileRequest request;
    request.module = sha.get();
    request.model = "agent";
    request.version = version;
    request.objective = objective;
    return service.submit(std::move(request));
  };
  std::vector<CompileService::ResponseFuture> futures;
  futures.push_back(submit(1, Objective::kCycles));
  futures.push_back(submit(1, Objective::kCycles));
  futures.push_back(submit(2, Objective::kCyclesTimesArea));
  futures.push_back(submit(0, Objective::kCycles));  // latest == v2
  for (auto& f : futures) ASSERT_TRUE(f.get().is_ok());

  // A failing request counts under the version it asked for.
  CompileRequest unknown;
  unknown.module = sha.get();
  unknown.model = "ghost";
  unknown.version = 7;
  ASSERT_FALSE(service.submit(std::move(unknown)).get().is_ok());

  const ServeMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.completed, 4u);
  EXPECT_EQ(metrics.failed, 1u);
  EXPECT_EQ(metrics.latency_hist.count, 5u);
  EXPECT_EQ(metrics.objective_completed[static_cast<std::size_t>(Objective::kCycles)], 3u);
  EXPECT_EQ(
      metrics.objective_completed[static_cast<std::size_t>(Objective::kCyclesTimesArea)], 1u);
  EXPECT_EQ(metrics.objective_completed[static_cast<std::size_t>(Objective::kFixedBudget)], 0u);

  ASSERT_EQ(metrics.per_model.size(), 3u);  // agent v1, agent v2, ghost v7
  EXPECT_EQ(metrics.per_model[0].model, "agent");
  EXPECT_EQ(metrics.per_model[0].version, 1u);
  EXPECT_EQ(metrics.per_model[0].completed, 2u);
  EXPECT_EQ(metrics.per_model[1].model, "agent");
  EXPECT_EQ(metrics.per_model[1].version, 2u);
  EXPECT_EQ(metrics.per_model[1].completed, 2u);  // explicit v2 + latest
  EXPECT_EQ(metrics.per_model[2].model, "ghost");
  EXPECT_EQ(metrics.per_model[2].version, 7u);
  EXPECT_EQ(metrics.per_model[2].failed, 1u);
  std::uint64_t per_model_completed = 0;
  for (const auto& m : metrics.per_model) per_model_completed += m.completed;
  EXPECT_EQ(per_model_completed, metrics.completed);
}

// ---------------------------------------------------------------------------
// Pareto fronts (multi-objective serving)
// ---------------------------------------------------------------------------

ParetoPoint pareto_point(std::uint64_t cycles, double area, std::uint64_t ir_size,
                         std::uint64_t fingerprint) {
  return {{}, cycles, area, ir_size, fingerprint};
}

TEST(ParetoFront, DominanceLooksAtActiveObjectivesOnly) {
  const ObjectiveWeights cycles_only{1.0, 0.0, 0.0};
  const ObjectiveWeights both{1.0, 0.0, 1.0};
  const ParetoPoint fast = pareto_point(50, 9.0, 200, 1);
  const ParetoPoint small = pareto_point(80, 1.0, 100, 2);

  // With only cycles active, fewer cycles wins outright — ir_size invisible.
  EXPECT_TRUE(dominates(fast, small, cycles_only));
  EXPECT_FALSE(dominates(small, fast, cycles_only));
  // With both active they trade off: neither dominates.
  EXPECT_FALSE(dominates(fast, small, both));
  EXPECT_FALSE(dominates(small, fast, both));
  // Dominance is strict: a point never dominates itself.
  EXPECT_FALSE(dominates(fast, fast, both));

  // {cycles: 1} degenerates the weights to single-objective serving.
  EXPECT_FALSE(ObjectiveWeights{}.active());
  EXPECT_TRUE(cycles_only.active());
  EXPECT_NE(weights_key(cycles_only), weights_key(both));
  EXPECT_EQ(weights_key(both), weights_key({1.0, 0.0, 1.0}));
}

TEST(ParetoFront, InsertCollapsesDuplicatesPrunesDominatedAndBoundsWidth) {
  const ObjectiveWeights weights{1.0, 0.0, 1.0};
  std::vector<ParetoPoint> front;

  EXPECT_TRUE(front_insert(front, pareto_point(100, 0.0, 100, 7), weights, 8));
  // Dominated by the incumbent: rejected, front untouched.
  EXPECT_FALSE(front_insert(front, pareto_point(100, 0.0, 120, 3), weights, 8));
  ASSERT_EQ(front.size(), 1u);

  // Duplicate objective vector: the smaller fingerprint survives, whichever
  // order the two arrive in.
  EXPECT_TRUE(front_insert(front, pareto_point(100, 0.0, 100, 4), weights, 8));
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].fingerprint, 4u);
  EXPECT_FALSE(front_insert(front, pareto_point(100, 0.0, 100, 9), weights, 8));
  EXPECT_EQ(front[0].fingerprint, 4u);

  // A dominating point prunes every member it beats.
  EXPECT_TRUE(front_insert(front, pareto_point(120, 0.0, 50, 5), weights, 8));
  EXPECT_TRUE(front_insert(front, pareto_point(90, 0.0, 90, 6), weights, 8));
  ASSERT_EQ(front.size(), 2u);  // (90, 90) pruned (100, 100)
  EXPECT_TRUE(is_nondominated(front, weights));

  // Width bound: the worst scalarised member is evicted — which can be the
  // newly inserted point itself (front_insert then reports false).
  EXPECT_FALSE(front_insert(front, pareto_point(60, 0.0, 400, 8), weights, 2));
  EXPECT_EQ(front.size(), 2u);
  EXPECT_TRUE(is_nondominated(front, weights));

  // is_nondominated is the verifier, so make sure it can actually fail.
  std::vector<ParetoPoint> bad = {pareto_point(10, 0.0, 10, 1), pareto_point(20, 0.0, 20, 2)};
  EXPECT_FALSE(is_nondominated(bad, weights));
  std::vector<ParetoPoint> duplicated = {pareto_point(10, 0.0, 10, 1),
                                         pareto_point(10, 0.0, 10, 2)};
  EXPECT_FALSE(is_nondominated(duplicated, weights));
}

TEST(ParetoFront, HypervolumeExactOnKnownFronts) {
  const ParetoPoint reference = pareto_point(100, 0.0, 100, 0);
  const ObjectiveWeights cycles_only{1.0, 0.0, 0.0};
  const ObjectiveWeights both{1.0, 0.0, 1.0};

  // 1D: a 50-cycle point against a 100-cycle reference covers half the range.
  std::vector<ParetoPoint> one = {pareto_point(50, 0.0, 777, 1)};
  EXPECT_DOUBLE_EQ(hypervolume(one, reference, cycles_only), 0.5);

  // 2D staircase: normalised points (0.5, 0.75) and (0.75, 0.25) span boxes
  // of 0.5*0.25 and 0.25*0.75 overlapping in a 0.25*0.25 corner.
  std::vector<ParetoPoint> stairs = {pareto_point(50, 0.0, 75, 1), pareto_point(75, 0.0, 25, 2)};
  EXPECT_DOUBLE_EQ(hypervolume(stairs, reference, both),
                   0.5 * 0.25 + 0.25 * 0.75 - 0.25 * 0.25);

  // A point that fails to strictly beat the reference contributes nothing;
  // neither does an empty front or a degenerate reference.
  std::vector<ParetoPoint> at_ref = {pareto_point(100, 0.0, 40, 1)};
  EXPECT_DOUBLE_EQ(hypervolume(at_ref, reference, both), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume({}, reference, both), 0.0);
  EXPECT_DOUBLE_EQ(hypervolume(one, pareto_point(0, 0.0, 0, 0), cycles_only), 0.0);

  // Adding a dominated point never changes the volume; adding a nondominated
  // one never shrinks it.
  std::vector<ParetoPoint> plus_dominated = stairs;
  plus_dominated.push_back(pareto_point(80, 0.0, 80, 3));
  EXPECT_DOUBLE_EQ(hypervolume(plus_dominated, reference, both),
                   hypervolume(stairs, reference, both));
  std::vector<ParetoPoint> plus_better = stairs;
  plus_better.push_back(pareto_point(25, 0.0, 95, 4));
  EXPECT_GT(hypervolume(plus_better, reference, both), hypervolume(stairs, reference, both));
}

TEST(ServePareto, WeightedRequestReturnsVerifiedNondominatedFront) {
  auto m = progen::build_chstone_like("sha");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 31));
  CompileService service(registry, nullptr, {.workers = 2});

  CompileRequest request;
  request.module = m.get();
  request.model = "agent";
  request.weights = {1.0, 0.0, 1.0};  // cycles vs IR size
  request.front_width = 6;
  auto response = service.compile_sync(request);
  ASSERT_TRUE(response.is_ok()) << response.message();
  const CompileResponse& r = response.value();

  ASSERT_FALSE(r.front.empty());
  EXPECT_LE(r.front.size(), 6u);
  EXPECT_TRUE(is_nondominated(r.front, request.weights));
  EXPECT_GE(r.front_hypervolume, 0.0);
  // front[0] is the representative: the provenance and the returned module
  // describe exactly that point.
  EXPECT_EQ(r.provenance.sequence, r.front[0].sequence);
  EXPECT_EQ(r.provenance.measured_cycles, r.front[0].cycles);
  ASSERT_NE(r.module, nullptr);
  EXPECT_EQ(ir::module_fingerprint(*r.module), r.front[0].fingerprint);
  // Every point's ir_size is a real measurement of a real module.
  for (const ParetoPoint& p : r.front) EXPECT_GT(p.ir_size, 0u);
  // Canonical order: scalarised score ascending.
  for (std::size_t i = 1; i < r.front.size(); ++i) {
    EXPECT_LE(scalar_score(r.front[i - 1], request.weights),
              scalar_score(r.front[i], request.weights));
  }

  // Deterministic: the same request decodes the same front, point for point.
  auto again = service.compile_sync(request);
  ASSERT_TRUE(again.is_ok());
  ASSERT_EQ(again.value().front.size(), r.front.size());
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    EXPECT_EQ(again.value().front[i].sequence, r.front[i].sequence);
    EXPECT_EQ(again.value().front[i].fingerprint, r.front[i].fingerprint);
  }
  EXPECT_DOUBLE_EQ(again.value().front_hypervolume, r.front_hypervolume);

  // The queued worker path answers bit-identically to compile_sync.
  auto queued = service.submit(request).get();
  ASSERT_TRUE(queued.is_ok()) << queued.message();
  ASSERT_EQ(queued.value().front.size(), r.front.size());
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    EXPECT_EQ(queued.value().front[i].sequence, r.front[i].sequence);
  }

  // Pareto traffic is observable: the queued request counted itself and
  // recorded front size + hypervolume into the scrape surface.
  const std::string scrape = service.metrics_registry()->render_text();
  EXPECT_NE(scrape.find("serve_pareto_requests 1"), std::string::npos) << scrape;
  EXPECT_NE(scrape.find("serve_front_size"), std::string::npos);
  EXPECT_NE(scrape.find("serve_front_hypervolume"), std::string::npos);
}

TEST(ServePareto, WidthOneSingleObjectiveDegeneratesToScalarGreedy) {
  auto m = progen::build_chstone_like("qsort");
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent", make_test_artifact(m.get(), tiny_env_config(), 13));
  CompileService service(registry, nullptr, {.workers = 0});

  CompileRequest scalar;
  scalar.module = m.get();
  scalar.model = "agent";
  scalar.beam_width = 1;
  auto scalar_response = service.compile_sync(scalar);
  ASSERT_TRUE(scalar_response.is_ok()) << scalar_response.message();
  EXPECT_TRUE(scalar_response.value().front.empty());

  CompileRequest pareto = scalar;
  pareto.weights = {1.0, 0.0, 0.0};
  pareto.front_width = 1;
  auto pareto_response = service.compile_sync(pareto);
  ASSERT_TRUE(pareto_response.is_ok()) << pareto_response.message();

  // A front of one with only cycles active is today's argmax: the Pareto
  // walk expands the same single candidate per step, so the sequence, the
  // measurement, and the optimized module are all identical.
  ASSERT_EQ(pareto_response.value().front.size(), 1u);
  EXPECT_EQ(pareto_response.value().provenance.sequence,
            scalar_response.value().provenance.sequence);
  EXPECT_EQ(pareto_response.value().provenance.measured_cycles,
            scalar_response.value().provenance.measured_cycles);
  EXPECT_EQ(ir::module_fingerprint(*pareto_response.value().module),
            ir::module_fingerprint(*scalar_response.value().module));
}

// ---------------------------------------------------------------------------
// Decode characterization: every request shape's observable answer, pinned
// ---------------------------------------------------------------------------

/// Feature + histogram observations, an exposed terminate action and a value
/// net under log-reward shaping: every branch of the decode is reachable.
rl::EnvConfig characterization_env_config() {
  rl::EnvConfig cfg;
  cfg.episode_length = 4;
  cfg.observation = rl::ObservationMode::kBoth;
  cfg.normalization = rl::NormalizationMode::kInstCountRatio;
  cfg.include_terminate = true;
  cfg.log_reward = true;
  // mem2reg, instcombine, gvn, simplifycfg, licm, unroll, rotate, adce: every
  // action moves cycles or area, so beams and fronts genuinely diverge.
  cfg.action_subset = {38, 30, 7, 31, 36, 33, 23, 28};
  return cfg;
}

/// FNV-1a over everything a caller can observe of one response: sequence,
/// baseline/predicted/measured cycles, area bits, beams_evaluated, every
/// front point, hypervolume bits and the response module's fingerprint.
std::uint64_t response_digest(const CompileResponse& r) {
  std::string bytes;
  const auto put = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto put_sequence = [&](const std::vector<int>& sequence) {
    put(sequence.size());
    for (const int pass : sequence) put(static_cast<std::uint64_t>(pass));
  };
  const Provenance& p = r.provenance;
  put_sequence(p.sequence);
  put(p.baseline_cycles);
  put(p.predicted_cycles);
  put(p.measured_cycles);
  put(std::bit_cast<std::uint64_t>(p.measured_area));
  put(static_cast<std::uint64_t>(p.beams_evaluated));
  put(r.front.size());
  for (const ParetoPoint& point : r.front) {
    put_sequence(point.sequence);
    put(point.cycles);
    put(std::bit_cast<std::uint64_t>(point.area));
    put(point.ir_size);
    put(point.fingerprint);
  }
  put(std::bit_cast<std::uint64_t>(r.front_hypervolume));
  put(ir::module_fingerprint(*r.module));
  return fnv1a(bytes);
}

/// The five decode shapes the service serves: greedy, scalar beam, fixed
/// budget beam, weighted Pareto, and the width-1 single-objective Pareto.
CompileRequest characterization_request(const ir::Module* module, int shape) {
  CompileRequest request;
  request.module = module;
  request.model = "agent";
  switch (shape) {
    case 0: break;  // greedy kCycles
    case 1:
      request.objective = Objective::kCyclesTimesArea;
      request.beam_width = 4;
      break;
    case 2:
      request.objective = Objective::kFixedBudget;
      request.pass_budget = 5;
      request.beam_width = 2;
      break;
    case 3:
      request.weights = {1.0, 0.5, 0.25};
      request.front_width = 4;
      break;
    default:
      request.weights = {1.0, 0.0, 0.0};
      request.front_width = 1;
      break;
  }
  return request;
}

struct PinnedDecode {
  const char* kernel;
  int shape;
  std::uint64_t digest;
  std::size_t lookups;  // EvalService hits + sequence hits + misses
  std::size_t misses;   // simulator runs
};

// Generated on the code before the scalar and Pareto decodes shared a core;
// a mismatch prints the full regenerated table.
constexpr PinnedDecode kPinnedDecodes[] = {
    {"sha", 0, 0x516d39b5d18c8604ULL, 2, 2},
    {"sha", 1, 0x2a5d6c7ee9719847ULL, 5, 0},
    {"sha", 2, 0xf9bcb1c107dacdfcULL, 3, 0},
    {"sha", 3, 0xc4322973bf9067e1ULL, 14, 0},
    {"sha", 4, 0xe54a86ea66e8d51cULL, 5, 0},
    {"qsort", 0, 0x12902145df947abfULL, 2, 1},
    {"qsort", 1, 0xe2e5ef9a32f5df63ULL, 5, 1},
    {"qsort", 2, 0x2b58b596cf95ffe0ULL, 3, 0},
    {"qsort", 3, 0x0da15109cb8d7267ULL, 13, 4},
    {"qsort", 4, 0xa97498e3eda5fbecULL, 3, 0},
    {"adpcm", 0, 0x42f05fc8602caaf3ULL, 2, 2},
    {"adpcm", 1, 0xd0af575642c07ba9ULL, 5, 0},
    {"adpcm", 2, 0xb5db3600eed1d1ddULL, 3, 0},
    {"adpcm", 3, 0xc3819d8aff48d1d0ULL, 16, 1},
    {"adpcm", 4, 0x0e3f4b7bb49859c2ULL, 5, 0},
};

TEST(ServeCharacterization, EveryDecodeShapeAnswersAsPinned) {
  const std::vector<const char*> kernels = {"sha", "qsort", "adpcm"};
  std::vector<std::unique_ptr<ir::Module>> modules;
  for (const char* kernel : kernels) modules.push_back(progen::build_chstone_like(kernel));
  auto registry = std::make_shared<ModelRegistry>();
  registry->publish("agent",
                    make_test_artifact(modules[0].get(), characterization_env_config(), 16));
  auto eval = std::make_shared<runtime::EvalService>();
  CompileService service(registry, eval, {.workers = 1});

  std::vector<PinnedDecode> got;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    for (int shape = 0; shape < 5; ++shape) {
      const CompileRequest request = characterization_request(modules[k].get(), shape);
      const runtime::EvalStats before = eval->stats();
      auto response = service.compile_sync(request);
      ASSERT_TRUE(response.is_ok()) << response.message();
      const runtime::EvalStats after = eval->stats();
      const std::uint64_t digest = response_digest(response.value());
      const std::size_t lookups = (after.hits + after.sequence_hits + after.misses) -
                                  (before.hits + before.sequence_hits + before.misses);
      got.push_back({kernels[k], shape, digest, lookups, after.misses - before.misses});
      // The queued batcher path answers the same request identically.
      auto queued = service.submit(request).get();
      ASSERT_TRUE(queued.is_ok()) << queued.message();
      EXPECT_EQ(response_digest(queued.value()), digest) << kernels[k] << " shape " << shape;
    }
  }

  std::string table;
  for (const PinnedDecode& p : got) {
    table += strf("    {\"%s\", %d, 0x%016llxULL, %zu, %zu},\n", p.kernel, p.shape,
                  static_cast<unsigned long long>(p.digest), p.lookups, p.misses);
  }
  ASSERT_EQ(std::size(kPinnedDecodes), got.size()) << table;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const PinnedDecode& want = kPinnedDecodes[i];
    SCOPED_TRACE(strf("%s shape %d", want.kernel, want.shape));
    EXPECT_STREQ(got[i].kernel, want.kernel);
    EXPECT_EQ(got[i].shape, want.shape);
    EXPECT_EQ(got[i].digest, want.digest) << table;
    EXPECT_EQ(got[i].lookups, want.lookups);
    EXPECT_EQ(got[i].misses, want.misses);
  }
}

}  // namespace
}  // namespace autophase::serve
