#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "support/str.hpp"

namespace autophase::obs {

// ---------------------------------------------------------------------------
// HistogramSpec
// ---------------------------------------------------------------------------

double HistogramSpec::lower_bound(std::uint32_t i) const noexcept {
  if (i == 0) return 0.0;
  return min * std::pow(growth, static_cast<double>(i - 1));
}

double HistogramSpec::upper_bound(std::uint32_t i) const noexcept {
  if (i + 1 >= buckets) return std::numeric_limits<double>::infinity();
  return lower_bound(i + 1);
}

std::uint32_t HistogramSpec::bucket_for(double value) const noexcept {
  if (!(value >= min)) return 0;  // negatives and NaNs land in underflow
  // log-spaced: index = 1 + floor(log(value/min) / log(growth)). Computed in
  // doubles, then clamped; the edge-rounding worst case moves a value one
  // bucket, which the quantile error bound already absorbs.
  const double idx = std::floor(std::log(value / min) / std::log(growth));
  const double clamped = std::max(0.0, idx);
  const auto bucket = static_cast<std::uint32_t>(clamped) + 1;
  return std::min(bucket, buckets - 1);
}

// ---------------------------------------------------------------------------
// HistogramSnapshot
// ---------------------------------------------------------------------------

HistogramSnapshot& HistogramSnapshot::operator+=(const HistogramSnapshot& o) {
  assert(spec == o.spec && "histogram merge requires identical bucket specs");
  if (counts.size() < o.counts.size()) counts.resize(o.counts.size(), 0);
  for (std::size_t i = 0; i < o.counts.size(); ++i) counts[i] += o.counts[i];
  if (count == 0) {
    min = o.min;
    max = o.max;
  } else if (o.count != 0) {
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
  count += o.count;
  sum += o.sum;
  return *this;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank on the cumulative bucket counts (the same convention the
  // old pooled-sample path used), then interpolate linearly inside the
  // winning bucket. Observed min/max tighten the edge buckets so p0/p100
  // are exact.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::uint32_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] <= rank) {
      seen += counts[i];
      continue;
    }
    double lo = spec.lower_bound(i);
    double hi = spec.upper_bound(i);
    lo = std::max(lo, min);
    hi = std::isinf(hi) ? max : std::min(hi, max);
    if (hi < lo) hi = lo;
    const double within =
        counts[i] <= 1 ? 0.5
                       : static_cast<double>(rank - seen) / static_cast<double>(counts[i] - 1);
    return lo + (hi - lo) * within;
  }
  return max;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(HistogramSpec spec) : spec_(spec), counts_(spec.buckets) {}

void Histogram::record(double value) noexcept {
  counts_[spec_.bucket_for(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value, std::memory_order_relaxed)) {
  }
  if (!any_.exchange(true, std::memory_order_relaxed)) {
    // First recorder seeds min/max; the CAS ratchets below correct any racer
    // that slipped in between (they loop against the seeded values).
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (value < lo && !min_.compare_exchange_weak(lo, value, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (value > hi && !max_.compare_exchange_weak(hi, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.spec = spec_;
  s.counts.resize(counts_.size());
  // Read the total first: the bucket sum can only be >= this total (records
  // between the two reads), so `count` never overstates the buckets.
  s.count = count_.load(std::memory_order_relaxed);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
    bucket_total += s.counts[i];
  }
  s.count = std::min(s.count, bucket_total);
  s.sum = sum_.load(std::memory_order_relaxed);
  if (any_.load(std::memory_order_relaxed)) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  return s;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

namespace {

MetricKey make_key(std::string name, MetricsRegistry::Labels labels) {
  std::sort(labels.begin(), labels.end());
  return MetricKey{std::move(name), std::move(labels)};
}

std::string render_key(const MetricKey& key) {
  if (key.labels.empty()) return key.name;
  std::string out = key.name + "{";
  for (std::size_t i = 0; i < key.labels.size(); ++i) {
    if (i > 0) out += ",";
    out += key.labels[i].first + "=\"" + key.labels[i].second + "\"";
  }
  out += "}";
  return out;
}

std::string render_key_with(const MetricKey& key, const char* extra_label,
                            const std::string& extra_value, const char* suffix) {
  MetricKey augmented = key;
  augmented.name += suffix;
  augmented.labels.emplace_back(extra_label, extra_value);
  std::sort(augmented.labels.begin(), augmented.labels.end());
  return render_key(augmented);
}

std::string render_value(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  // Trim trailing zeros so counters expose as integers.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return strf("%lld", static_cast<long long>(v));
  }
  return strf("%.6g", v);
}

std::string render_snapshot(const MetricsSnapshot& snapshot) {
  std::string out;
  const auto gauge_lines = [&](bool polled) {
    for (const auto& [key, g] : snapshot.gauges) {
      if (g.polled == polled) out += render_key(key) + " " + render_value(g.sum) + "\n";
    }
  };
  for (const auto& [key, value] : snapshot.counters) {
    out += render_key(key) + " " + render_value(static_cast<double>(value)) + "\n";
  }
  gauge_lines(false);
  for (const auto& [key, s] : snapshot.histograms) {
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      cumulative += s.counts[i];
      if (s.counts[i] == 0 && i + 1 != s.counts.size()) continue;  // sparse
      const double edge = s.spec.upper_bound(static_cast<std::uint32_t>(i));
      out += render_key_with(key, "le", render_value(edge), "_bucket") + " " +
             render_value(static_cast<double>(cumulative)) + "\n";
    }
    out += render_key(MetricKey{key.name + "_sum", key.labels}) + " " + render_value(s.sum) + "\n";
    out += render_key(MetricKey{key.name + "_count", key.labels}) + " " +
           render_value(static_cast<double>(s.count)) + "\n";
  }
  gauge_lines(true);
  return out;
}

}  // namespace

MetricsSnapshot& MetricsSnapshot::operator+=(const MetricsSnapshot& o) {
  for (const auto& [key, value] : o.counters) counters[key] += value;
  for (const auto& [key, g] : o.gauges) {
    const auto [it, inserted] = gauges.try_emplace(key, g);
    if (inserted) continue;
    it->second.sum += g.sum;
    it->second.min = std::min(it->second.min, g.min);
    it->second.max = std::max(it->second.max, g.max);
  }
  for (const auto& [key, h] : o.histograms) {
    const auto [it, inserted] = histograms.try_emplace(key, h);
    if (!inserted) it->second += h;
  }
  return *this;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(MetricKey{name, {}});
  return it == counters.end() ? 0 : it->second;
}

const GaugeSummary* MetricsSnapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(MetricKey{name, {}});
  return it == gauges.end() ? nullptr : &it->second;
}

const HistogramSnapshot* MetricsSnapshot::histogram(const std::string& name) const {
  const auto it = histograms.find(MetricKey{name, {}});
  return it == histograms.end() ? nullptr : &it->second;
}

std::vector<std::pair<MetricKey, std::uint64_t>> MetricsSnapshot::counter_family(
    const std::string& name) const {
  std::vector<std::pair<MetricKey, std::uint64_t>> out;
  for (auto it = counters.lower_bound(MetricKey{name, {}});
       it != counters.end() && it->first.name == name; ++it) {
    out.emplace_back(*it);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[make_key(name, std::move(labels))];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[make_key(name, std::move(labels))];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Labels labels,
                                      HistogramSpec spec) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[make_key(name, std::move(labels))];
  if (slot == nullptr) slot = std::make_unique<Histogram>(spec);
  return *slot;
}

void MetricsRegistry::gauge_fn(const std::string& name, Labels labels, GaugeFn fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  gauge_fns_[make_key(name, std::move(labels))] = std::move(fn);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Callback gauges are evaluated outside the registry lock: a callback that
  // itself takes locks (an EvalService aggregating shards) must never nest
  // under ours.
  std::vector<std::pair<MetricKey, GaugeFn>> fns;
  MetricsSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, c] : counters_) snap.counters.emplace(key, c->value());
    for (const auto& [key, g] : gauges_) {
      const double v = g->value();
      snap.gauges.emplace(key, GaugeSummary{v, v, v, false});
    }
    for (const auto& [key, h] : histograms_) snap.histograms.emplace(key, h->snapshot());
    fns.reserve(gauge_fns_.size());
    for (const auto& [key, fn] : gauge_fns_) fns.emplace_back(key, fn);
  }
  for (const auto& [key, fn] : fns) {
    const double v = fn();
    snap.gauges[key] = GaugeSummary{v, v, v, true};
  }
  return snap;
}

std::string MetricsRegistry::render_text() const { return render_snapshot(snapshot()); }

MetricsRegistry& default_registry() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace autophase::obs
