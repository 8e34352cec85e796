// Replay of a decode through public layer functions. The serve decoder, the
// RL environment and EvalService::measure_sequence call feature extraction,
// policy forward, pass application, the interpreter and the scheduler with no
// public seam in between, so a traced run times those layers by re-running
// the same functions on the same inputs here, one span per call, into the
// trace's `replay` ring. Every number derived from these spans is labelled
// "replayed".
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "ir/module.hpp"
#include "ml/mlp.hpp"
#include "rl/env.hpp"
#include "runtime/eval_service.hpp"

namespace perfbench {

/// One decode to replay: a program and the Table-1 pass sequence applied.
struct ReplayItem {
  const autophase::ir::Module* program = nullptr;
  std::vector<int> sequence;
};

/// Exact counts from a replay (deterministic for a fixed item list).
struct ReplayCounts {
  std::uint64_t items = 0;
  std::uint64_t applied = 0;     // passes run
  std::uint64_t changed = 0;     // passes that reported a change
  std::uint64_t size_after = 0;  // sum of ir_size over the final modules
  std::uint64_t instructions = 0;  // interpreter instructions executed
  double interp_s = 0.0;         // summed interp.run span time
  double hls_s = 0.0;            // summed hls.schedule span time
};

/// Replays each item: ir.clone, then passes.apply per pass, then interp.run
/// and hls.schedule on the final module. With a `policy` it replays a
/// decode, which observes and measures every step: features.extract and
/// ml.forward before each pass and ir.fingerprint after it (`env` shapes
/// the observation). Without one it replays EvalService::measure_sequence,
/// which fingerprints the final module once.
ReplayCounts replay_decode(const std::vector<ReplayItem>& items,
                           const autophase::ml::Mlp* policy,
                           const autophase::rl::EnvConfig& env, obs::Tracer& tracer);

/// Fills the count-set and profiler metrics every traced workload reports:
/// exact pass/IR counts from the replay, exact EvalService counters of the
/// count set (`count_set_source` says what that set is), the profiler time
/// of the traced phase (`profile_busy_s`, EvalStats::eval_nanos) and its
/// interp/hls split by the replayed share.
void report_counts(const ReplayCounts& counts, const autophase::runtime::EvalStats& count_set,
                   const char* count_set_source, double profile_busy_s, Report& report);

}  // namespace perfbench
