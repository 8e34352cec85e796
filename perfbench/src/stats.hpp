// Pure statistics used by every perfbench workload: the percentile rule,
// span self time and coverage, and failure accounting. No I/O and no
// dependence on the autophase library, so the self-test can pin them down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of `samples`; 0 when empty.
double quantile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The percentile rule: the highest of p50, p90, p99 and p99.9 that has at
/// least ten samples beyond it, as a fraction (0.99 for p99). Returns 0 when
/// not even the median has ten samples beyond it (fewer than 20 samples).
double tail_quantile(std::size_t n);

/// Median, the rule's tail percentile, and the sample count behind both.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // 0 = no percentile qualifies
  double tail = 0.0;
};
Summary summarize(const std::vector<double>& samples);

/// Geometric mean of positive ratios; 0 when empty.
double geomean(const std::vector<double>& ratios);

/// Length of the union of half-open [begin, end) intervals.
std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals);

/// Minimal span shape for the analysis (ids as the tracer assigns them).
struct SpanTime {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
};

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (children may run on other threads and may
/// overlap each other; overlap is counted once, and child time outside the
/// parent's interval is ignored). Result i belongs to spans[i].
std::vector<std::uint64_t> self_times(const std::vector<SpanTime>& spans);

/// Share of the root spans' time (roots: spans with no recorded parent) that
/// none of their leaf descendants (spans with no children) covers. A span
/// that only encloses other spans covers nothing itself, so wrapping a call
/// cannot hide time that no layer accounts for; a root with no descendants
/// is wholly unattributed. 0 when there are no roots.
double unattributed_share(const std::vector<SpanTime>& spans);

/// Operations attempted and failed; a failed output check counts as a
/// failed operation.
struct ErrorLedger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A check of an already-attempted operation: counts only its failure.
  void check(bool ok) {
    if (!ok) ++failed;
  }
  ErrorLedger& operator+=(const ErrorLedger& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
  [[nodiscard]] double rate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

/// JSON number text carrying every digit of `value` (round-trips a double).
std::string json_number(double value);

}  // namespace perfbench
