// Shared perfbench plumbing: command-line options, the metric tables that
// BENCHMARK.json declares, the benchmark-owned tracer with its per-layer
// analysis, host calibration, and the result printer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "obs/trace.hpp"
#include "rl/env.hpp"
#include "stats.hpp"

namespace perfbench {

namespace obs = autophase::obs;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  /// Worker threads, pool sizes and client connections: min(4, nproc).
  std::size_t threads = 4;
};

/// How a metric's value may be compared across runs of one seed.
enum class Kind {
  kTiming,  // a measured time or rate; varies run to run
  kExact,   // a count from deterministic work; repeats exactly per seed
  kCount,   // a count or ratio that depends on timing (not comparable exactly)
};

struct MetricSpec {
  const char* name;
  const char* unit;
  Kind kind;
};

/// End-to-end metrics (reported by untraced runs) and per-layer metrics
/// (reported by traced runs), in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();
const char* kind_name(Kind kind);

/// What one workload run produced.
struct Report {
  ErrorLedger ops;
  bool correct = true;
  /// Metric values by name. Per-layer metrics a workload never exercises
  /// are filled with 0 by the printer.
  std::map<std::string, double> metrics;
  /// Where each per-layer value came from ("live", "replayed", "derived",
  /// "count set") and the sample count behind percentiles.
  std::map<std::string, std::string> provenance;
  /// Extra human-readable lines printed before the result.
  std::vector<std::string> lines;

  void fail(const std::string& why) {
    correct = false;
    lines.push_back("CHECK FAILED: " + why);
  }
};

/// The benchmark's own tracer. `live` holds spans recorded around the calls
/// a traced workload makes while it runs; `replay` holds spans recorded when
/// the benchmark re-runs public layer functions on a workload's inputs to
/// time layers with no public seam inside the call it measured.
class LayerTrace {
 public:
  static constexpr std::size_t kLiveCapacity = std::size_t{1} << 17;
  static constexpr std::size_t kReplayCapacity = std::size_t{1} << 17;

  LayerTrace();

  obs::Tracer live{kLiveCapacity};
  obs::Tracer replay{kReplayCapacity};

  /// True once the live ring is 80% full: a traced phase stops there, so
  /// nothing is dropped.
  [[nodiscard]] bool live_nearly_full() const;

  /// Records a span whose interval was measured by the caller (timestamps
  /// from obs::trace_now_ns). `self` carries its own (trace, span) identity,
  /// e.g. from Tracer::child_of, so children can name it before it ends.
  static void record(obs::Tracer& tracer, const obs::TraceContext& self, std::uint64_t parent,
                     const char* name, std::uint64_t start_ns, std::uint64_t end_ns);
};

/// Traced-run bookkeeping shared by the workloads, run after any replay:
/// every per-layer metric read from spans (the p50 of a span's durations,
/// live spans preferred over replayed ones), passes self time over the
/// replayed count set, trace overhead from an untraced and a traced phase
/// of the same code path, the unattributed share of the live roots, the
/// drop count, the layer self-time breakdown, and the trace file.
void finish_trace(const Options& options, LayerTrace& trace, double untraced_s_per_op,
                  double traced_s_per_op, Report& report);

/// One of the nine CHStone-like kernels with its reference run (return
/// value and memory checksum) and the cycles of its -O3 build.
struct Kernel {
  std::unique_ptr<autophase::ir::Module> module;
  std::uint64_t o3_cycles = 0;
  std::int64_t return_value = 0;
  std::uint64_t checksum = 0;
};

/// The nine kernels in progen::chstone_benchmark_names order; throws when
/// one does not run.
std::vector<Kernel> load_kernels();

/// The paper's environment settings: 45-pass episodes, features plus
/// histogram observation.
autophase::rl::EnvConfig paper_env_config();

/// A seeded random program (progen::generate_random_program, filtered like
/// generate_filtered_program) whose size and run length fall in a fixed
/// band, so a seed's draw costs about what any other seed's does:
/// 1500..3000 IR instructions and blocks, 2000..20000 interpreted
/// instructions. Candidates come from a SplitMix64 stream of `seed`;
/// deterministic.
std::unique_ptr<autophase::ir::Module> banded_random_program(std::uint64_t seed);

/// Cumulative CPU time of the whole machine from /proc/stat, in ticks: all
/// of it, and the part the hypervisor gave to other guests (steal). Both 0
/// where /proc/stat cannot be read.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();

/// What a run records about its host, next to its metrics but not gated:
/// a spin probe taken before the workload (one thread's time per loop
/// iteration, which shows a slower core, and the parallel speedup at
/// 1..max_threads threads, index t-1), and the share of CPU time stolen by
/// other guests while the workload ran (0 when unknown).
struct HostRecord {
  double spin_ns_per_iter = 0.0;
  std::vector<double> spin_speedups;
  double steal_share = 0.0;
};

/// Runs the spin probe; leaves steal_share to the caller.
HostRecord probe_host(std::size_t max_threads);

/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// CPU time (user + system, all threads) this process has used, seconds.
double process_cpu_s();

/// Prints the report: the human-readable lines, then (last) the one-line
/// JSON result with the end-to-end or per-layer metric set. Also writes the
/// full report, with metric kinds and the host record, to `out_dir`.
void print_report(const Options& options, const Report& report, const HostRecord& host);

}  // namespace perfbench
