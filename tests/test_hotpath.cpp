// Hot-path regression suite for the arena/CoW IR and its ids, the feature
// extractor, the blocked batched forward pass, and the interpreter's
// per-thread memory arena. Rides the concurrency ctest label (and the TSan
// leg) because concurrent readers of one CoW source and serial-vs-parallel
// bit-identity of the interpreter are part of the contract under test.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "features/features.hpp"
#include "hls/cycle_estimator.hpp"
#include "interp/interpreter.hpp"
#include "ir/builder.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "ml/mlp.hpp"
#include "passes/pass.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "serve/module_codec.hpp"
#include "support/rng.hpp"

namespace autophase {
namespace {

// ---------------------------------------------------------------------------
// Arena / CoW allocation accounting
// ---------------------------------------------------------------------------

TEST(HotPath, RolloutCloneAllocatesPerFunctionNotPerInstruction) {
  const auto program = progen::build_chstone_like("mpeg2");
  const std::size_t functions = program->function_count();
  const std::size_t instructions = program->instruction_count();
  ASSERT_GT(instructions, 100u) << "corpus program too small to be meaningful";

  const auto rollout = ir::clone_module_for_rollout(*program);
  ASSERT_NE(rollout->arena(), nullptr);
  const std::size_t lazy_allocs = rollout->arena()->allocation_count();

  const auto eager = ir::clone_module(*program);
  ASSERT_NE(eager->arena(), nullptr);
  const std::size_t eager_allocs = eager->arena()->allocation_count();

  // The lazy clone allocates signatures/args/globals only: a small constant
  // per function, nothing per instruction. The eager clone owns every node.
  EXPECT_GE(eager_allocs, instructions);
  EXPECT_LT(lazy_allocs, eager_allocs / 4);
  EXPECT_LT(lazy_allocs, 16 * (functions + 1) + 2 * program->global_count());

  // Materialisation brings the lazy clone up to the eager clone's footprint.
  rollout->materialize_all();
  EXPECT_GE(rollout->arena()->allocation_count(), eager_allocs / 2);
  EXPECT_FALSE(rollout->has_lazy_functions());
}

TEST(HotPath, FingerprintingRolloutCloneStaysLazy) {
  const auto program = progen::build_chstone_like("qsort");
  const auto rollout = ir::clone_module_for_rollout(*program);
  const std::size_t before = rollout->arena()->allocation_count();
  // Printing/fingerprinting reads through the CoW source; no deep copy.
  EXPECT_EQ(ir::module_fingerprint(*rollout), ir::module_fingerprint(*program));
  EXPECT_EQ(rollout->arena()->allocation_count(), before);
  EXPECT_TRUE(rollout->has_lazy_functions());
}

TEST(HotPath, MeasuringRolloutCloneStaysLazy) {
  // Running, costing and serialising read through the CoW source, also
  // through a rollout clone of a lazy clone, and copy no body.
  const std::unique_ptr<ir::Module> sources[] = {progen::build_chstone_like("gsm"),
                                                 progen::generate_filtered_program(1)};
  for (const auto& src : sources) {
    const auto run = interp::run_module(*src);
    const auto est = hls::profile_cycles(*src);
    const auto fsm = hls::simulate_fsm_cycles(*src);
    ASSERT_TRUE(run.is_ok() && est.is_ok() && fsm.is_ok()) << src->name();
    const std::string blob = serve::serialize_module(*src);
    const auto lazy = ir::clone_module_for_rollout(*src);
    const auto lazy_of_lazy = ir::clone_module_for_rollout(*lazy);
    for (const ir::Module* clone : {lazy.get(), lazy_of_lazy.get()}) {
      const auto clone_run = interp::run_module(*clone);
      const auto clone_est = hls::profile_cycles(*clone);
      const auto clone_fsm = hls::simulate_fsm_cycles(*clone);
      ASSERT_TRUE(clone_run.is_ok() && clone_est.is_ok() && clone_fsm.is_ok()) << src->name();
      EXPECT_EQ(clone_run.value().return_value, run.value().return_value) << src->name();
      EXPECT_EQ(clone_run.value().instructions_executed, run.value().instructions_executed);
      EXPECT_EQ(clone_run.value().memory_checksum, run.value().memory_checksum);
      EXPECT_EQ(clone_est.value().cycles, est.value().cycles) << src->name();
      EXPECT_EQ(clone_est.value().fsm_cycles, est.value().fsm_cycles);
      EXPECT_EQ(clone_est.value().burst_cycles, est.value().burst_cycles);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(clone_est.value().area),
                std::bit_cast<std::uint64_t>(est.value().area));
      EXPECT_EQ(clone_fsm.value(), fsm.value()) << src->name();
      EXPECT_EQ(serve::serialize_module(*clone), blob) << src->name();
    }
    for (const ir::Module* clone : {lazy.get(), lazy_of_lazy.get()}) {
      for (std::size_t i = 0; i < clone->function_count(); ++i) {
        EXPECT_TRUE(clone->function(i)->has_lazy_body())
            << src->name() << " " << clone->function(i)->name();
      }
    }
    // Materialising the clone of a clone copies from the source and leaves
    // the lazy clone between them untouched.
    lazy_of_lazy->materialize_all();
    EXPECT_EQ(serve::serialize_module(*lazy_of_lazy), blob) << src->name();
    for (std::size_t i = 0; i < lazy->function_count(); ++i) {
      EXPECT_TRUE(lazy->function(i)->has_lazy_body()) << src->name();
    }
  }
}

TEST(HotPath, RolloutCloneBitIdenticalPrintAfterPasses) {
  const auto program = progen::build_chstone_like("gsm");
  const std::vector<int> sequence = {38, 30, 31, 7, 28};  // mem2reg..adce mix

  const auto rollout = ir::clone_module_for_rollout(*program);
  const auto eager = ir::clone_module(*program);
  EXPECT_EQ(ir::print_module(*rollout), ir::print_module(*eager));

  passes::apply_pass_sequence(*rollout, sequence);
  passes::apply_pass_sequence(*eager, sequence);
  EXPECT_EQ(ir::print_module(*rollout), ir::print_module(*eager));
  EXPECT_EQ(ir::module_fingerprint(*rollout), ir::module_fingerprint(*eager));
  // And neither drifted from what a pass run on the pristine source yields.
  const auto reference = ir::clone_module(*program);
  passes::apply_pass_sequence(*reference, sequence);
  EXPECT_EQ(ir::print_module(*rollout), ir::print_module(*reference));
}

/// Every block and instruction id of `m` in block order, then each
/// function's two id bounds.
std::vector<std::uint32_t> ids_and_bounds(const ir::Module& m) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < m.function_count(); ++i) {
    const ir::Function& f = *m.function(i);
    for (std::size_t b = 0; b < f.block_count(); ++b) {
      const ir::BasicBlock* bb = f.block(b);
      out.push_back(bb->id());
      for (std::size_t j = 0; j < bb->size(); ++j) out.push_back(bb->inst(j)->id());
    }
    out.push_back(f.block_id_bound());
    out.push_back(f.inst_id_bound());
  }
  return out;
}

TEST(IrIds, ConcurrentRolloutReadersLeaveSourceIdsUnchanged) {
  // The passes leave the source's ids sparse; each thread then prints,
  // fingerprints and serialises its own lazy rollout clone of it, all three
  // reading the source's bodies.
  auto source = progen::build_chstone_like("gsm");
  passes::apply_pass_sequence(*source, {38, 30, 31, 7, 28});
  const std::vector<std::uint32_t> ids = ids_and_bounds(*source);
  const std::string text = ir::print_module(*source);
  const std::uint64_t fingerprint = ir::module_fingerprint(*source);
  const std::string blob = serve::serialize_module(*source);

  constexpr std::size_t kThreads = 4;
  std::vector<std::string> texts(kThreads);
  std::vector<std::uint64_t> fingerprints(kThreads);
  std::vector<std::string> blobs(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const auto rollout = ir::clone_module_for_rollout(*source);
      texts[t] = ir::print_module(*rollout);
      fingerprints[t] = ir::module_fingerprint(*rollout);
      blobs[t] = serve::serialize_module(*rollout);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(ids_and_bounds(*source), ids);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(texts[t], text) << "thread " << t;
    EXPECT_EQ(fingerprints[t], fingerprint) << "thread " << t;
    EXPECT_EQ(blobs[t], blob) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Feature extraction
// ---------------------------------------------------------------------------

TEST(HotPath, BatchExtractionDoesNotMaterializeRolloutClones) {
  const auto program = progen::build_chstone_like("sha");
  const auto rollout = ir::clone_module_for_rollout(*program);
  const std::size_t before = rollout->arena()->allocation_count();
  EXPECT_EQ(features::extract_features(*rollout), features::extract_features(*program));
  EXPECT_EQ(rollout->arena()->allocation_count(), before);
  EXPECT_TRUE(rollout->has_lazy_functions());
}

// ---------------------------------------------------------------------------
// Blocked GEMM / batched forward bit-identity
// ---------------------------------------------------------------------------

TEST(HotPath, BlockedForwardBatchRowsMatchSingleForward) {
  Rng rng(7);
  ml::MlpConfig config;
  config.input = 56;
  config.hidden = {256, 256};
  config.output = 46;
  const ml::Mlp net(config, rng);

  // Enough rows to exercise a partial trailing tile in the blocked matmul.
  const std::size_t batch = 13;
  std::vector<std::vector<double>> rows(batch, std::vector<double>(config.input));
  for (auto& row : rows) {
    for (double& v : row) v = rng.normal(0.0, 1.0);
    row[3] = 0.0;  // exercise the sparse zero-skip path too
  }

  const ml::Matrix batched = net.forward_batch(rows);
  ASSERT_EQ(batched.rows(), batch);
  std::vector<double> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  const ml::Matrix flat_batched = net.forward_batch(std::move(flat), batch);

  for (std::size_t r = 0; r < batch; ++r) {
    ml::Matrix single(1, config.input);
    std::copy(rows[r].begin(), rows[r].end(), single.row(0));
    const ml::Matrix one = net.forward(single);
    for (std::size_t c = 0; c < config.output; ++c) {
      // Exact equality: batching must never change a served answer.
      EXPECT_EQ(batched.at(r, c), one.at(0, c)) << "row " << r << " col " << c;
      EXPECT_EQ(flat_batched.at(r, c), one.at(0, c)) << "row " << r << " col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Interpreter arena exactness. Each thread reuses one arena and re-zeroes
// only the prefix the previous run wrote, so no run may observe another's
// memory: not after a failed run, not across repeat runs or arena sizes,
// and not across threads.
// ---------------------------------------------------------------------------

using interp::ExecutionResult;
using ir::IRBuilder;
using ir::Module;
using ir::Type;
using ir::Value;

testing::AssertionResult same_execution(const Result<ExecutionResult>& a,
                                        const Result<ExecutionResult>& b) {
  if (a.is_ok() != b.is_ok() || a.message() != b.message()) {
    return testing::AssertionFailure() << "'" << a.message() << "' vs '" << b.message() << "'";
  }
  if (!a.is_ok()) return testing::AssertionSuccess();
  const ExecutionResult& x = a.value();
  const ExecutionResult& y = b.value();
  if (x.return_value != y.return_value) {
    return testing::AssertionFailure() << "return " << x.return_value << " vs " << y.return_value;
  }
  if (x.memory_checksum != y.memory_checksum) return testing::AssertionFailure() << "checksum";
  if (x.instructions_executed != y.instructions_executed) {
    return testing::AssertionFailure() << "instructions executed";
  }
  if (x.profile.block_counts != y.profile.block_counts) {
    return testing::AssertionFailure() << "block counts";
  }
  if (x.profile.mem_intrinsic_elems != y.profile.mem_intrinsic_elems) {
    return testing::AssertionFailure() << "mem intrinsic elements";
  }
  return testing::AssertionSuccess();
}

constexpr std::int64_t kFrameSlots = std::int64_t{1} << 15;  // 256 KiB of i64
// An i64 slot just under the top of the default 4 MiB arena, far past the frame.
constexpr std::int64_t kHighSlot = (std::int64_t{1} << 19) - 16;

/// A module whose main allocas kFrameSlots i64s (`frame`), with the builder
/// positioned after it. Every FrameModule declares the same globals, so
/// their frames start at the same address.
struct FrameModule {
  std::unique_ptr<Module> module;
  IRBuilder b;
  Value* frame;
};

FrameModule frame_module(const char* name) {
  auto m = std::make_unique<Module>(name);
  m->create_global(Type::i64(), 4, "g", {1, 2, 3, 4}, false);
  ir::Function* f = m->create_function("main", Type::i32(), {});
  IRBuilder b(*m);
  b.set_insert_point(f->create_block("entry"));
  Value* frame = b.alloca_array(Type::i64(), static_cast<std::size_t>(kFrameSlots), "p");
  return {std::move(m), b, frame};
}

/// Writes the top of its frame and a slot near the top of the arena, memsets
/// half its frame, then traps on an out-of-bounds store.
std::unique_ptr<Module> dirtying_module() {
  FrameModule fm = frame_module("dirty");
  Module& m = *fm.module;
  IRBuilder& b = fm.b;
  b.store(m.get_i64(-1), b.gep(fm.frame, m.get_i64(kFrameSlots - 1)));
  b.store(m.get_i64(-1), b.gep(fm.frame, m.get_i64(kHighSlot)));
  b.mem_set(fm.frame, m.get_i64(0x5a5a), m.get_i64(kFrameSlots / 2));
  b.store(m.get_i64(1), b.gep(fm.frame, m.get_i64(std::int64_t{1} << 40)));
  b.ret(m.get_i32(0));
  return std::move(fm.module);
}

/// Reads back every address dirtying_module wrote, and copies four slots
/// across its memset boundary into global `g` so the checksum sees them.
std::unique_ptr<Module> probing_module() {
  FrameModule fm = frame_module("probe");
  Module& m = *fm.module;
  IRBuilder& b = fm.b;
  Value* sum = b.load(b.gep(fm.frame, m.get_i64(0)));
  for (const std::int64_t slot : {kFrameSlots / 2 - 1, kFrameSlots - 1, kHighSlot}) {
    sum = b.add(sum, b.load(b.gep(fm.frame, m.get_i64(slot))));
  }
  b.mem_cpy(m.global(0), b.gep(fm.frame, m.get_i64(kFrameSlots / 2 - 2)), m.get_i64(4));
  b.ret(b.trunc(sum, Type::i32()));
  return std::move(fm.module);
}

TEST(HotPath, InterpreterFailedRunLeavesNoTraceForTheNextRun) {
  const auto dirty = dirtying_module();
  const auto probe = probing_module();
  std::optional<Result<ExecutionResult>> fresh;
  std::thread([&] { fresh.emplace(interp::run_module(*probe)); }).join();
  ASSERT_TRUE(fresh->is_ok()) << fresh->message();
  EXPECT_EQ(fresh->value().return_value, 0);

  const auto trapped = interp::run_module(*dirty);
  ASSERT_FALSE(trapped.is_ok());
  EXPECT_EQ(trapped.message().rfind("interpreter: out-of-bounds store", 0), 0u)
      << trapped.message();
  const auto after = interp::run_module(*probe);
  EXPECT_TRUE(same_execution(*fresh, after));
}

TEST(HotPath, InterpreterRepeatRunsAreIdentical) {
  std::vector<std::unique_ptr<Module>> modules;
  modules.push_back(progen::build_chstone_like("gsm"));
  modules.push_back(progen::build_chstone_like("matmul"));
  modules.push_back(dirtying_module());
  modules.push_back(probing_module());
  for (const auto& m : modules) {
    interp::Interpreter interpreter(*m);
    const auto first = interpreter.run();
    const auto second = interpreter.run();
    EXPECT_TRUE(same_execution(first, second)) << m->name();
  }
}

TEST(HotPath, InterpreterArenaSizeChangesKeepEachRunsBound) {
  // Loads, then overwrites, a slot past 64 KiB: out of bounds in a 64 KiB
  // arena; in the default arena it must read 0 although the previous
  // default-sized run left 7 there.
  Module m("bound");
  ir::Function* f = m.create_function("main", Type::i32(), {});
  IRBuilder b(m);
  b.set_insert_point(f->create_block("entry"));
  Value* slot = b.gep(b.alloca_scalar(Type::i64(), "p"), m.get_i64(std::int64_t{1} << 13));
  Value* before = b.load(slot);
  b.store(m.get_i64(7), slot);
  b.ret(b.trunc(before, Type::i32()));

  interp::InterpreterOptions small;
  small.memory_bytes = std::size_t{1} << 16;
  std::optional<Result<ExecutionResult>> small_run;
  std::optional<Result<ExecutionResult>> default_run;
  for (const bool use_small : {true, false, false, true, true, false}) {
    auto r = interp::run_module(m, use_small ? small : interp::InterpreterOptions{});
    if (use_small) {
      ASSERT_FALSE(r.is_ok());
      EXPECT_EQ(r.message().rfind("interpreter: out-of-bounds load", 0), 0u) << r.message();
    } else {
      ASSERT_TRUE(r.is_ok()) << r.message();
      EXPECT_EQ(r.value().return_value, 0);
    }
    auto& first = use_small ? small_run : default_run;
    if (first) {
      EXPECT_TRUE(same_execution(*first, r));
    } else {
      first.emplace(std::move(r));
    }
  }
}

TEST(HotPath, InterpreterThreadsMatchSerialBitForBit) {
  // Kernels interleaved with random-sequence rewrites of them, plus the
  // failing and probing modules, so every thread's arena is dirtied by a
  // trap and by many different footprints.
  std::vector<std::unique_ptr<Module>> modules;
  Rng rng(15);
  for (const auto& name : progen::chstone_benchmark_names()) {
    modules.push_back(progen::build_chstone_like(name));
    auto rewritten = progen::build_chstone_like(name);
    std::vector<int> sequence;
    for (int i = 0; i < 12; ++i) {
      sequence.push_back(static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1)));
    }
    passes::apply_pass_sequence(*rewritten, sequence);
    modules.push_back(std::move(rewritten));
    modules.push_back(modules.size() % 2 == 0 ? dirtying_module() : probing_module());
  }

  std::vector<Result<ExecutionResult>> serial;
  for (const auto& m : modules) serial.push_back(interp::run_module(*m));

  // Every thread runs every module, each from a different starting point and
  // odd threads backwards, so each module follows a different predecessor.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::pair<std::size_t, Result<ExecutionResult>>>> parallel(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::size_t n = modules.size();
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = ((t % 2 == 0 ? k : n - 1 - k) + t * n / kThreads) % n;
        parallel[t].emplace_back(i, interp::run_module(*modules[i]));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(parallel[t].size(), modules.size());
    for (const auto& [i, r] : parallel[t]) {
      EXPECT_TRUE(same_execution(serial[i], r)) << "thread " << t << " module " << i;
    }
  }
}

}  // namespace
}  // namespace autophase
