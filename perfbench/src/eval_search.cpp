// eval_search: the paper's random-search / sample-collection traffic. Cold
// runtime::EvalService::evaluate_batch calls over a thread pool, each on a
// fresh service, evaluating seeded random 45-pass sequences on one of the
// nine CHStone-like kernels. No policy, queue or socket runs. A traced run
// times each EvalService::evaluate_sequence call live and splits one into
// clone, passes, fingerprint, interpreter and scheduler by replaying the
// count set.
#include <algorithm>
#include <numeric>
#include <optional>

#include "interp/interpreter.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "passes/pass.hpp"
#include "replay.hpp"
#include "runtime/eval_service.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ap = autophase;
using ap::ir::Module;

constexpr std::size_t kSequenceLength = 45;
constexpr std::size_t kBatchSize = 64;
/// Sequences per kernel whose optimized module is run against the original.
constexpr std::size_t kSemanticPerKernel = 4;
/// Sequences per kernel that a traced run replays for its exact counts.
constexpr std::size_t kReplayPerKernel = 16;
/// EvalService's answer when the simulator failed on a module.
constexpr std::uint64_t kPenaltyCycles = 1ull << 40;

struct Setup {
  std::vector<Kernel> kernels;
  std::unique_ptr<ap::ThreadPool> pool;
};

Setup set_up(std::size_t threads) {
  Setup setup;
  setup.kernels = load_kernels();
  setup.pool = std::make_unique<ap::ThreadPool>(threads);
  return setup;
}

struct Batch {
  std::size_t kernel = 0;
  std::vector<std::vector<int>> sequences;
};

/// Seeded batches: batch b holds kBatchSize random sequences for kernel
/// order[b % kernels], so the first `kernels` batches cover every kernel once.
class BatchSource {
 public:
  BatchSource(std::uint64_t seed, std::size_t kernels) : rng_(seed), order_(kernels) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::shuffle(order_.begin(), order_.end(), rng_);
  }

  Batch next() {
    Batch batch;
    batch.kernel = order_[produced_++ % order_.size()];
    batch.sequences.resize(kBatchSize);
    for (std::vector<int>& sequence : batch.sequences) {
      sequence.resize(kSequenceLength);
      for (int& pass : sequence) {
        pass = static_cast<int>(rng_.uniform_int(0, ap::passes::kNumPasses - 1));
      }
    }
    return batch;
  }

 private:
  ap::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t produced_ = 0;
};

struct LoopStats {
  std::vector<double> batch_ms;
  std::size_t sequences = 0;
  double busy_s = 0.0;  // time inside the measured calls
  std::uint64_t profile_nanos = 0;
  /// Results of the first batch of each kernel (batches 0..kernels-1).
  std::vector<std::vector<std::uint64_t>> first_cycles;
};

/// How a loop evaluates a batch. Untraced runs measure evaluate_batch. A
/// traced run makes the same evaluation from the public calls evaluate_batch
/// is made of, one evaluate_sequence per sequence on the pool against the
/// program's fingerprint, in both of its phases, so the traced phase can
/// wrap each call in a runtime.evaluate span and its overhead compares one
/// code path with and without spans.
enum class Path { kBatch, kSequences };

std::vector<std::uint64_t> evaluate(const Setup& setup, const Batch& batch, Path path,
                                    ap::runtime::EvalService& service, LayerTrace* trace) {
  const Module& program = *setup.kernels[batch.kernel].module;
  if (path == Path::kBatch) return service.evaluate_batch(program, batch.sequences).cycles;
  std::optional<obs::ScopedSpan> root;
  if (trace != nullptr) root.emplace(trace->live, trace->live.begin_trace(), "bench.batch");
  std::vector<std::uint64_t> cycles(batch.sequences.size());
  const std::uint64_t fingerprint = ap::ir::module_fingerprint(program);
  setup.pool->parallel_for(batch.sequences.size(), [&](std::size_t i) {
    std::optional<obs::ScopedSpan> span;
    if (trace != nullptr) span.emplace(trace->live, root->context(), "runtime.evaluate");
    cycles[i] = service.evaluate_sequence(program, fingerprint, batch.sequences[i]);
  });
  return cycles;
}

/// The measured loop: each batch on a fresh pooled service, for `seconds`
/// and at least one batch per kernel (a traced phase stops early when the
/// live ring is nearly full).
void run_batches(const Setup& setup, BatchSource& source, double seconds, Path path,
                 LayerTrace* trace, Report& report, LoopStats& out) {
  const auto start = Clock::now();
  while (out.batch_ms.size() < setup.kernels.size() || seconds_since(start) < seconds) {
    if (trace != nullptr && trace->live_nearly_full()) break;
    const Batch batch = source.next();
    ap::runtime::EvalServiceConfig config;
    config.pool = setup.pool.get();
    ap::runtime::EvalService service(config);
    const auto t0 = Clock::now();
    const std::vector<std::uint64_t> cycles = evaluate(setup, batch, path, service, trace);
    const auto t1 = Clock::now();
    out.batch_ms.push_back(ms_between(t0, t1));
    out.busy_s += ms_between(t0, t1) / 1e3;
    out.sequences += batch.sequences.size();
    out.profile_nanos += service.stats().eval_nanos;
    for (const std::uint64_t c : cycles) report.ops.record(c < kPenaltyCycles);
    if (out.first_cycles.size() < setup.kernels.size()) out.first_cycles.push_back(cycles);
  }
}

/// Output checks (untimed): the first batch of every kernel re-evaluated
/// serially on a fresh service must match the pooled results, and a sample
/// of optimized modules must compute what the original program computes.
/// Also yields cycles_vs_o3, the count set's EvalService counters, and the
/// sequences a traced run replays.
void check(const Setup& setup, std::uint64_t seed, const LoopStats& loop, Report& report,
           ap::runtime::EvalStats& count_set, std::vector<ReplayItem>& items) {
  BatchSource source(seed, setup.kernels.size());
  std::vector<double> medians;
  std::vector<double> bests;
  for (std::size_t b = 0; b < setup.kernels.size(); ++b) {
    const Batch batch = source.next();
    const Kernel& kernel = setup.kernels[batch.kernel];
    ap::runtime::EvalService serial;
    const auto result = serial.evaluate_batch(*kernel.module, batch.sequences);
    count_set += serial.stats();
    std::vector<double> ratios;
    for (std::size_t i = 0; i < batch.sequences.size(); ++i) {
      const bool same = result.cycles[i] == loop.first_cycles[b][i];
      report.ops.check(same);
      if (!same) report.fail("pooled and serial cycles differ on batch " + std::to_string(b));
      if (i < kReplayPerKernel) items.push_back({kernel.module.get(), batch.sequences[i]});
      ratios.push_back(static_cast<double>(result.cycles[i]) /
                       static_cast<double>(kernel.o3_cycles));
    }
    medians.push_back(quantile(ratios, 0.5));
    bests.push_back(*std::min_element(ratios.begin(), ratios.end()));
    for (std::size_t i = 0; i < kSemanticPerKernel; ++i) {
      auto optimized = ap::ir::clone_module(*kernel.module);
      ap::passes::apply_pass_sequence(*optimized, batch.sequences[i]);
      const auto run = ap::interp::run_module(*optimized);
      const bool same = run.is_ok() && run.value().return_value == kernel.return_value &&
                        run.value().memory_checksum == kernel.checksum;
      report.ops.record(same);
      if (!same) report.fail("optimized module changed the program's result");
    }
  }
  // The best of a seed's random sequences swings by tens of percent from
  // seed to seed; the median does not, so the median is the metric.
  report.metrics["cycles_vs_o3"] = geomean(medians);
  report.provenance["cycles_vs_o3"] =
      "geomean over kernels of median cycles / -O3 cycles of the first batch (best: " +
      json_number(geomean(bests)) + ")";
}

}  // namespace

Report run_eval_search(const Options& options, LayerTrace* trace) {
  Report report;
  double setup_s = 0.0;
  const Setup setup = timed_setup([&] { return set_up(options.threads); }, setup_s);
  report.metrics["setup_s"] = setup_s;
  BatchSource source(options.seed, setup.kernels.size());

  LoopStats loop;
  LoopStats traced;
  double cpu_s = 0.0;
  if (trace == nullptr) {
    const double cpu0 = process_cpu_s();
    run_batches(setup, source, options.seconds, Path::kBatch, nullptr, report, loop);
    cpu_s = process_cpu_s() - cpu0;
    report.metrics["peak_rss_mb"] = peak_rss_mb();  // before the checks allocate
  } else {
    run_batches(setup, source, options.seconds * kUntracedShare, Path::kSequences, nullptr,
                report, loop);
    run_batches(setup, source, options.seconds * (1.0 - kUntracedShare), Path::kSequences, trace,
                report, traced);
  }

  ap::runtime::EvalStats count_set;
  std::vector<ReplayItem> items;
  check(setup, options.seed, loop, report, count_set, items);

  if (trace == nullptr) {
    std::vector<double> ops(loop.batch_ms.size(), static_cast<double>(kBatchSize));
    std::vector<double> busy_s;
    for (const double ms : loop.batch_ms) busy_s.push_back(ms / 1e3);
    report.metrics["throughput_per_s"] = windowed_rate(ops, busy_s, 1.0);
    report.provenance["throughput_per_s"] =
        "median over 1 s windows of sequences per second inside evaluate_batch (" +
        std::to_string(loop.sequences) + " sequences)";
    report_latency(loop.batch_ms, 0.9, "evaluate_batch calls", report);
    report.metrics["cpu_ms_per_op"] = cpu_s * 1e3 / static_cast<double>(loop.sequences);
    report.provenance["cpu_ms_per_op"] = "process CPU time per sequence over the measured loop";
    return report;
  }

  const ReplayCounts counts = replay_decode(items, nullptr, {}, trace->replay);
  report_counts(counts, count_set, "first batch of each kernel on a fresh serial service",
                static_cast<double>(traced.profile_nanos) / 1e9, report);
  finish_trace(options, *trace, loop.busy_s / static_cast<double>(loop.sequences),
               traced.busy_s / static_cast<double>(std::max<std::size_t>(1, traced.sequences)),
               report);
  return report;
}

}  // namespace perfbench
