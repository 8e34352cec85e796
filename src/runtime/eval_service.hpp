// Concurrent evaluation service: the one place the framework talks to the
// cycle profiler. Owns a sharded, striped-lock memoisation cache keyed by
// module fingerprint, with a secondary (program, pass-sequence) key so search
// baselines can skip re-cloning and re-applying passes entirely, and fans
// batched evaluations out over a ThreadPool. Per-shard stats keep the paper's
// "Samples / Program" metric exact under concurrency: each unique module is
// profiled (and counted) exactly once, no matter how many threads race on it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "hls/cycle_estimator.hpp"
#include "interp/interpreter.hpp"
#include "ir/module.hpp"
#include "support/thread_pool.hpp"

namespace autophase::runtime {

struct EvalServiceConfig {
  hls::ResourceConstraints constraints{};
  interp::InterpreterOptions interp_options{};
  /// Lock stripes; rounded up to a power of two.
  std::size_t shards = 16;
  /// Worker pool for evaluate_batch; nullptr evaluates serially. Not owned.
  ThreadPool* pool = nullptr;
};

struct EvalStats {
  std::size_t hits = 0;           // module-fingerprint cache hits
  std::size_t misses = 0;         // real simulator calls (the Samples metric)
  std::size_t sequence_hits = 0;  // (program, sequence) short-circuits
  std::size_t primed = 0;         // entries installed by prime(), not measured
  std::uint64_t eval_nanos = 0;   // wall time spent inside the profiler

  EvalStats& operator+=(const EvalStats& o) {
    hits += o.hits;
    misses += o.misses;
    sequence_hits += o.sequence_hits;
    primed += o.primed;
    eval_nanos += o.eval_nanos;
    return *this;
  }

  /// Fraction of lookups answered without a simulator call — the quantity
  /// cluster routing (consistent-hash by program fingerprint) protects.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t total = hits + sequence_hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits + sequence_hits) / static_cast<double>(total);
  }
};

/// Secondary cache key for an un-materialised evaluation request.
std::uint64_t sequence_key(std::uint64_t program_fingerprint,
                           std::span<const int> sequence) noexcept;

/// One profiler result, cached as a unit. `area` rides along with the cycle
/// count so objectives beyond raw cycles (e.g. the serving layer's
/// cycles x area latency-area product) never trigger a second simulation.
/// `ir_size` (instructions + blocks) is the third objective of Pareto
/// serving; it is a pure function of the module, recomputed on every
/// materialised lookup rather than trusted from the cache, so entries primed
/// from artifact baselines (which predate ir_size) still answer correctly.
struct Measure {
  std::uint64_t cycles = 0;
  double area = 0.0;
  std::uint64_t ir_size = 0;
};

class EvalService {
 public:
  explicit EvalService(EvalServiceConfig config = {});

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Memoised measurement (cycles + area) of a materialised module.
  /// `was_sample` (optional) reports whether THIS call ran the simulator —
  /// under contention exactly one caller per unique module gets `true`; the
  /// rest block until the result is ready and see a hit.
  Measure measure(const ir::Module& m, bool* was_sample = nullptr);
  /// Same, with the module fingerprint precomputed by the caller (the Pareto
  /// decode fingerprints every candidate for its tie-breaks anyway).
  Measure measure(const ir::Module& m, std::uint64_t fingerprint, bool* was_sample = nullptr);

  /// Cycles of `program` after `sequence`, through the secondary
  /// (program, sequence) key: a sequence hit returns without cloning the
  /// program or applying a single pass. The caller passes the program's
  /// fingerprint (search loops evaluate thousands of sequences against one
  /// immutable program).
  std::uint64_t evaluate_sequence(const ir::Module& program, std::uint64_t program_fingerprint,
                                  const std::vector<int>& sequence, bool* was_sample = nullptr);
  /// Measure variant of the secondary-key path.
  Measure measure_sequence(const ir::Module& program, std::uint64_t program_fingerprint,
                           const std::vector<int>& sequence, bool* was_sample = nullptr);

  struct BatchResult {
    std::vector<std::uint64_t> cycles;  // cycles[i] belongs to sequences[i]
    std::size_t new_samples = 0;        // simulator calls this batch triggered
  };

  /// Evaluates every sequence against `program`, fanned out over the pool
  /// (serial without one). Results are written to per-index slots, so the
  /// output — and every cache/sample count — is identical to the serial path
  /// regardless of thread count or scheduling.
  BatchResult evaluate_batch(const ir::Module& program,
                             std::span<const std::vector<int>> sequences);

  /// Installs an already-measured result under a module fingerprint without
  /// running the simulator (model warm-up: training-corpus baselines travel
  /// with the artifact and pre-fill the cache on import). Returns true when
  /// the entry was inserted; a fingerprint that is already cached — measured
  /// or pending — is left untouched, so priming can never overwrite a real
  /// measurement or race an evaluation in flight. Primed entries answer
  /// later lookups as ordinary hits and are never counted as samples.
  bool prime(std::uint64_t fingerprint, Measure measure);

  /// Fingerprint of everything that shapes a measurement (HLS resource
  /// constraints + interpreter budgets). Two services agreeing here produce
  /// identical Measures for identical modules, which is the precondition for
  /// shipping one service's results into another's cache (warm-up baselines
  /// are stamped with this and refused on mismatch).
  [[nodiscard]] std::uint64_t config_fingerprint() const noexcept;

  /// Real simulator calls so far (== stats().misses).
  [[nodiscard]] std::size_t samples() const;
  /// Aggregate over all shards.
  [[nodiscard]] EvalStats stats() const;
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] EvalStats shard_stats(std::size_t shard) const;

  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_; }
  [[nodiscard]] const hls::ResourceConstraints& constraints() const noexcept {
    return config_.constraints;
  }

 private:
  /// Exactly-once evaluation slot: the inserting thread profiles the module
  /// and publishes the result; waiters block on the entry, not the shard.
  struct ModuleEntry {
    std::mutex mutex;
    std::condition_variable cv;
    bool ready = false;
    Measure measure;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<ModuleEntry>> modules;
    std::unordered_map<std::uint64_t, Measure> sequences;
    EvalStats stats;
  };

  Shard& shard_for(std::uint64_t key) noexcept;
  const Shard& shard_for(std::uint64_t key) const noexcept;
  Measure measure_by_fingerprint(std::uint64_t fingerprint, const ir::Module& m,
                                 bool* was_sample);

  EvalServiceConfig config_;
  std::vector<Shard> shards_;  // size is a power of two
  ThreadPool* pool_ = nullptr;
};

}  // namespace autophase::runtime
