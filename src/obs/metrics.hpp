// Unified process metrics: a thread-safe registry of counters, gauges, and
// mergeable fixed-bucket histograms, replacing the per-component bespoke
// stats (CompileService latency reservoirs, FleetMonitor's pooled-sample
// merge, EvalService counters) with one instrument vocabulary.
//
// The histogram is the load-bearing piece: every histogram in the fleet uses
// the same log-spaced bucket layout (HistogramSpec), so a fleet percentile is
// computed from the *summed* per-node bucket counts — merging is associative
// and commutative by construction, and two monitors merging in different
// orders get bit-identical snapshots. That replaces shipping raw latency
// reservoirs across the wire (O(window) bytes, truncation under load) with
// O(buckets) bytes and no truncation ever.
//
// Instruments are created once (idempotently, keyed by name + labels) and
// the returned handles are plain atomics — recording on a hot path is a
// relaxed fetch_add, no lock, no map lookup. A registry-wide `enabled` flag
// lets instrumented code compile its record calls down to a single branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace autophase::obs {

/// Fixed log-spaced bucket layout shared by every histogram in the process
/// (and, transitively, the fleet: snapshots merge only with an identical
/// spec). Bucket i spans [lower_bound(i), lower_bound(i+1)); values below
/// `min` land in bucket 0, values at or above the top bound land in the last
/// (overflow) bucket. Defaults cover 1us..~100s when recording milliseconds.
struct HistogramSpec {
  double min = 1e-3;            // lower bound of bucket 1 (bucket 0 = underflow)
  double growth = 1.2589254117941673;  // 10^(1/10): ten buckets per decade
  std::uint32_t buckets = 96;   // ~9.5 decades of range + under/overflow

  [[nodiscard]] bool operator==(const HistogramSpec& o) const noexcept {
    return min == o.min && growth == o.growth && buckets == o.buckets;
  }
  /// Inclusive lower edge of bucket `i` (0 = underflow bucket, edge 0).
  [[nodiscard]] double lower_bound(std::uint32_t i) const noexcept;
  /// Exclusive upper edge of bucket `i` (+inf for the overflow bucket).
  [[nodiscard]] double upper_bound(std::uint32_t i) const noexcept;
  [[nodiscard]] std::uint32_t bucket_for(double value) const noexcept;
};

/// A histogram's state at one instant; the unit that crosses the wire and
/// merges across nodes. Quantiles interpolate inside the winning bucket, so
/// a merged quantile differs from the exact pooled-sample quantile by at
/// most one bucket width (growth - 1, i.e. ~26% relative with the default
/// ten-buckets-per-decade layout — and typically far less).
struct HistogramSnapshot {
  HistogramSpec spec{};
  std::vector<std::uint64_t> counts;  // spec.buckets entries
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // smallest / largest recorded value (0 when empty)
  double max = 0.0;

  /// Bucket-wise merge. Requires an identical spec (asserted); merging is
  /// associative and commutative, so fleet aggregation order cannot matter.
  HistogramSnapshot& operator+=(const HistogramSnapshot& o);

  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Monotonic counter. Handles stay valid for the registry's lifetime.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Settable instantaneous value (doubles; set/add/max-update).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
  }
  /// Ratchets the gauge up to `v` (high-water marks like max queue depth).
  void update_max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-free fixed-bucket histogram (see HistogramSpec). record() is two
/// relaxed atomic adds plus a CAS loop each for min/max — safe from any
/// number of threads; snapshot() is a consistent-enough read for monitoring
/// (bucket sums may trail `count` by in-flight records, never by more).
class Histogram {
 public:
  explicit Histogram(HistogramSpec spec = {});

  void record(double value) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] const HistogramSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  HistogramSpec spec_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> any_{false};
};

/// `name{label="value",...}` — the exposition identity of one instrument.
struct MetricKey {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  // sorted by key

  bool operator<(const MetricKey& o) const noexcept {
    return name != o.name ? name < o.name : labels < o.labels;
  }
  bool operator==(const MetricKey& o) const = default;
};

/// One gauge across one or more registries. A single registry's snapshot
/// has sum == min == max == the gauge's value; merging keeps all three, so
/// a fleet view can read a total (queue depth), a floor (members alive) or
/// a ceiling (stalest sync) from the same entry.
struct GaugeSummary {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Read from a gauge_fn callback. Only exposition order depends on it
  /// (callbacks print after histograms); it does not cross the wire.
  bool polled = false;
};

/// Every instrument of a registry at one instant, keyed like the exposition,
/// or the merge of several such snapshots. This is the kStats payload: a
/// fleet monitor merges snapshots generically, so a new instrument reaches
/// the fleet view without any per-field code.
struct MetricsSnapshot {
  std::map<MetricKey, std::uint64_t> counters;
  std::map<MetricKey, GaugeSummary> gauges;
  std::map<MetricKey, HistogramSnapshot> histograms;

  /// Counters and histograms sum; gauges keep sum, min and max. Histograms
  /// merge only with an identical spec (see HistogramSnapshot::operator+=).
  MetricsSnapshot& operator+=(const MetricsSnapshot& o);

  /// Unlabelled lookups: 0 / nullptr when the instrument is absent.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  [[nodiscard]] const GaugeSummary* gauge(const std::string& name) const;
  [[nodiscard]] const HistogramSnapshot* histogram(const std::string& name) const;
  /// Every counter under `name`, ordered by label set.
  [[nodiscard]] std::vector<std::pair<MetricKey, std::uint64_t>> counter_family(
      const std::string& name) const;
};

/// One registry = one scrape surface. Each ServeNode (its CompileService)
/// owns a registry so an in-process fleet keeps per-node metrics separate;
/// standalone tools use the process-wide default_registry(). Instrument
/// creation is idempotent: the same (name, labels) always returns the same
/// handle, so components can re-acquire instead of caching if they prefer.
class MetricsRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;
  /// Polled at exposition time — views over state owned elsewhere (an
  /// EvalService's sharded counters, a registry's size) without double
  /// accounting.
  using GaugeFn = std::function<double()>;

  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {}, HistogramSpec spec = {});
  /// Registers (or replaces) a callback gauge.
  void gauge_fn(const std::string& name, Labels labels, GaugeFn fn);

  /// Every instrument's current value. Callback gauges are evaluated after
  /// the registry lock is released (a callback may take its own locks); a
  /// callback replaces a settable gauge registered under the same key.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus-style text exposition of snapshot(): one `name{labels}
  /// value` line per counter/gauge, `_bucket`/`_sum`/`_count` series per
  /// histogram (cumulative `le` buckets), ordered by (name, labels) within
  /// each section — counters, settable gauges, histograms, callback gauges.
  [[nodiscard]] std::string render_text() const;

  /// Cheap-instrumentation switch: scoped-timer macros and optional record
  /// sites check this single flag before doing any work.
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::map<MetricKey, std::unique_ptr<Counter>> counters_;
  std::map<MetricKey, std::unique_ptr<Gauge>> gauges_;
  std::map<MetricKey, std::unique_ptr<Histogram>> histograms_;
  std::map<MetricKey, GaugeFn> gauge_fns_;
  std::atomic<bool> enabled_{true};
};

/// Process-wide default registry (tools, tests, single-service embedders).
MetricsRegistry& default_registry();

}  // namespace autophase::obs
