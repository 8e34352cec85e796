// Observability suite (src/obs/): the algebra the fleet metrics rely on
// (bucket-histogram merges must be associative/commutative and quantiles
// must stay within one bucket of the exact pooled answer), the tracing ring
// (bounded, drop-accounted, one-branch when off), trace-context propagation
// across the compile wire (tagged trailer: untraced bytes are bit-identical
// to the pre-trace encoding, unknown tags are skipped), the Prometheus-style
// exposition (golden file), and the structured log ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "progen/chstone_like.hpp"
#include "serve/serialization.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace autophase {
namespace {

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

// ---------------------------------------------------------------------------
// Histogram algebra
// ---------------------------------------------------------------------------

obs::HistogramSnapshot snapshot_of(const std::vector<double>& values) {
  obs::Histogram hist;
  for (const double v : values) hist.record(v);
  return hist.snapshot();
}

void expect_same_snapshot(const obs::HistogramSnapshot& a, const obs::HistogramSnapshot& b) {
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative) {
  Rng rng(11);
  std::vector<std::vector<double>> shards(3);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (int i = 0; i < 200; ++i) {
      shards[s].push_back(0.01 * std::pow(10.0, 4.0 * rng.uniform()));  // 0.01 .. 100
    }
  }
  const obs::HistogramSnapshot a = snapshot_of(shards[0]);
  const obs::HistogramSnapshot b = snapshot_of(shards[1]);
  const obs::HistogramSnapshot c = snapshot_of(shards[2]);

  obs::HistogramSnapshot left = a;   // (a + b) + c
  left += b;
  left += c;
  obs::HistogramSnapshot bc = b;     // a + (b + c)
  bc += c;
  obs::HistogramSnapshot right = a;
  right += bc;
  expect_same_snapshot(left, right);

  obs::HistogramSnapshot ab = a;     // a + b == b + a
  ab += b;
  obs::HistogramSnapshot ba = b;
  ba += a;
  expect_same_snapshot(ab, ba);

  // Merging an empty snapshot is the identity (modulo spec).
  obs::HistogramSnapshot with_empty = a;
  obs::HistogramSnapshot empty;
  empty.spec = a.spec;
  empty.counts.assign(a.counts.size(), 0);
  with_empty += empty;
  expect_same_snapshot(with_empty, a);
}

TEST(ObsHistogram, BucketSumQuantileStaysWithinOneBucketOfPooled) {
  // Two "nodes" record disjoint latency populations; the fleet quantile is
  // computed from the *summed* buckets and must land within one bucket
  // width (relative factor `growth`) of the exact pooled-sample quantile —
  // the error bound that justifies replacing shipped reservoirs.
  Rng rng(7);
  std::vector<double> pooled;
  obs::Histogram node_a;
  obs::Histogram node_b;
  for (int i = 0; i < 4000; ++i) {
    const double v = 0.1 * std::pow(10.0, 3.0 * rng.uniform());  // 0.1 .. 100 "ms"
    pooled.push_back(v);
    (i % 2 == 0 ? node_a : node_b).record(v);
  }
  obs::HistogramSnapshot merged = node_a.snapshot();
  merged += node_b.snapshot();
  ASSERT_EQ(merged.count, pooled.size());

  std::sort(pooled.begin(), pooled.end());
  const double growth = merged.spec.growth;
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(pooled.size() - 1) + 0.5);
    const double exact = pooled[rank];
    const double approx = merged.quantile(q);
    EXPECT_LE(approx, exact * growth * (1 + 1e-9)) << "q=" << q;
    EXPECT_GE(approx, exact / growth * (1 - 1e-9)) << "q=" << q;
  }
  // Edges are exact: observed min/max tighten the end buckets.
  EXPECT_DOUBLE_EQ(merged.quantile(0.0), pooled.front());
  EXPECT_DOUBLE_EQ(merged.quantile(1.0), pooled.back());
}

// ---------------------------------------------------------------------------
// Registry + exposition
// ---------------------------------------------------------------------------

TEST(ObsRegistry, HandlesAreIdempotentPerNameAndLabels) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("hits", {{"model", "agent"}});
  obs::Counter& b = registry.counter("hits", {{"model", "agent"}});
  obs::Counter& other = registry.counter("hits", {{"model", "ghost"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.inc(2);
  b.inc();
  EXPECT_EQ(a.value(), 3u);

  const auto family = registry.snapshot().counter_family("hits");
  ASSERT_EQ(family.size(), 2u);
  EXPECT_EQ(family[0].first.labels[0].second, "agent");
  EXPECT_EQ(family[0].second, 3u);
  EXPECT_EQ(family[1].first.labels[0].second, "ghost");
  EXPECT_EQ(family[1].second, 0u);
}

TEST(ObsRegistry, ExpositionMatchesGoldenFile) {
  obs::MetricsRegistry registry;
  registry.counter("requests", {{"model", "agent"}}).inc(3);
  registry.counter("requests", {{"model", "ghost"}}).inc(1);
  registry.counter("errors").inc(2);
  registry.gauge("queue_depth").set(4);
  registry.gauge("temperature").set(1.5);
  // Power-of-two spec so every bucket edge renders as a clean integer.
  obs::HistogramSpec spec;
  spec.min = 1.0;
  spec.growth = 2.0;
  spec.buckets = 6;
  obs::Histogram& hist = registry.histogram("latency_ms", {}, spec);
  for (const double v : {0.5, 3.0, 10.0, 100.0}) hist.record(v);
  registry.gauge_fn("uptime_polls", {}, [] { return 7.0; });

  const std::string text = registry.render_text();
  maybe_regenerate("obs_exposition.golden.txt", text);
  EXPECT_EQ(text, read_file(data_path("obs_exposition.golden.txt")));
}

TEST(ObsRegistry, ConcurrentWritersNeverLoseCounts) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Handle acquisition races with other creators on purpose: the
      // registry must hand every thread the same instruments.
      obs::Counter& ctr = registry.counter("ops");
      obs::Histogram& hist = registry.histogram("lat");
      obs::Gauge& peak = registry.gauge("peak");
      for (int i = 0; i < kPerThread; ++i) {
        ctr.inc();
        hist.record(0.5 + 0.25 * ((t + i) % 7));
        peak.update_max(static_cast<double>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(registry.counter("ops").value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const obs::HistogramSnapshot s = registry.histogram("lat").snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(std::accumulate(s.counts.begin(), s.counts.end(), std::uint64_t{0}), s.count);
  EXPECT_DOUBLE_EQ(registry.gauge("peak").value(), kPerThread - 1);
}

// ---------------------------------------------------------------------------
// Tracer ring
// ---------------------------------------------------------------------------

obs::SpanRecord make_span(obs::Tracer& tracer, const obs::TraceContext& root,
                          std::uint64_t start_ns) {
  obs::SpanRecord span;
  span.trace = root.trace;
  span.span = tracer.next_span_id();
  span.parent = root.span;
  span.name = "unit";
  span.start_ns = start_ns;
  span.duration_ns = 10;
  span.thread = obs::current_thread_ordinal();
  return span;
}

TEST(ObsTracer, RingIsBoundedAndAccountsDrops) {
  obs::Tracer tracer(/*capacity=*/64);
  tracer.set_enabled(true);
  const obs::TraceContext root = tracer.begin_trace();
  ASSERT_TRUE(root.valid());
  constexpr std::uint64_t kSpans = 400;
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    tracer.record(make_span(tracer, root, /*start_ns=*/i));
  }
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  EXPECT_LE(spans.size(), 64u);
  EXPECT_EQ(tracer.recorded(), kSpans);
  // Conservation: everything ever recorded is either retained or counted
  // dropped — an exported trace can say exactly how much it lost.
  EXPECT_EQ(spans.size() + tracer.dropped(), kSpans);
  EXPECT_GT(tracer.dropped(), 0u);
  // The ring keeps the newest spans (oldest are overwritten).
  for (const obs::SpanRecord& span : spans) EXPECT_GE(span.start_ns, kSpans - 128);

  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, DisabledTracerCostsNothingAndRecordsNothing) {
  obs::Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_FALSE(tracer.begin_trace().valid());  // invalid ctx disarms AP_SPAN
  {
    obs::ScopedSpan span(tracer, tracer.begin_trace(), "off");
    EXPECT_FALSE(span.armed());
    span.attr("k", std::uint64_t{1});  // must be a no-op, not a crash
  }
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(ObsTracer, ScopedSpansNestAndExportAsChromeJson) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  const obs::TraceContext root = tracer.begin_trace();
  {
    obs::ScopedSpan outer(tracer, root, "outer");
    ASSERT_TRUE(outer.armed());
    outer.attr("stage", "request");
    obs::ScopedSpan inner(tracer, outer.context(), "inner");
    inner.attr("rows", std::uint64_t{3});
  }
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const obs::SpanRecord& outer = spans[0].name == "outer" ? spans[0] : spans[1];
  const obs::SpanRecord& inner = spans[0].name == "outer" ? spans[1] : spans[0];
  EXPECT_EQ(outer.trace, inner.trace);
  EXPECT_EQ(inner.parent, outer.span);
  EXPECT_EQ(outer.parent, root.span);

  const std::string json = obs::chrome_trace_json(spans, "unit-test");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find(outer.trace.hex()), std::string::npos);
  EXPECT_NE(json.find("\"rows\":\"3\""), std::string::npos);
  EXPECT_NE(json.find("unit-test"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace context on the compile wire
// ---------------------------------------------------------------------------

TEST(ObsWire, TraceContextRoundTripsAndUntracedBytesAreUnchanged) {
  auto module = progen::build_chstone_like("aes");
  serve::CompileRequest request;
  request.module = module.get();
  request.model = "agent";
  request.priority = 1;

  // Untraced: the encoding must be byte-identical to one produced with no
  // trailer at all — an old peer sees exactly the bytes it always saw.
  const std::string untraced = net::encode_compile_request(request);
  request.trace.trace = {0x1122334455667788ull, 0x99aabbccddeeff00ull};
  request.trace.span = 42;
  const std::string traced = net::encode_compile_request(request);
  ASSERT_GT(traced.size(), untraced.size());
  EXPECT_EQ(traced.compare(0, untraced.size(), untraced), 0)
      << "trace trailer must append, never reshape the v2 payload";

  auto decoded = net::decode_compile_request(traced);
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  EXPECT_EQ(decoded.value().request.trace.trace, request.trace.trace);
  EXPECT_EQ(decoded.value().request.trace.span, 42u);

  auto plain = net::decode_compile_request(untraced);
  ASSERT_TRUE(plain.is_ok());
  EXPECT_FALSE(plain.value().request.trace.valid());
}

TEST(ObsWire, UnknownTrailerTagsAreSkippedAndCorruptTraceIsRejected) {
  auto module = progen::build_chstone_like("sha");
  serve::CompileRequest request;
  request.module = module.get();
  request.model = "agent";

  // A future field from a newer peer: tag 200, arbitrary bytes. An old
  // decoder (this one) must skip it, not fail.
  std::string payload = net::encode_compile_request(request);
  serve::ByteWriter trailer;
  trailer.u8(200);
  trailer.str("from-the-future");
  payload += trailer.take();
  auto decoded = net::decode_compile_request(payload);
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  EXPECT_FALSE(decoded.value().request.trace.valid());

  // A recognised trace tag with a short field is a hard error, not a guess.
  std::string corrupt = net::encode_compile_request(request);
  serve::ByteWriter bad;
  bad.u8(net::kCompileTagTrace);
  serve::ByteWriter field;
  field.u64(1);  // 8 bytes where 24 are required
  bad.str(field.take());
  corrupt += bad.take();
  auto rejected = net::decode_compile_request(corrupt);
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_NE(rejected.message().find("trace"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured log ring
// ---------------------------------------------------------------------------

TEST(ObsLog, RingCapturesComponentsAndOverflowKeepsNewest) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);  // quiet stderr; ring capture is unaffected
  clear_recent_logs();
  AP_CLOG(kWarn, "gossip") << "peer 9 unreachable";
  AP_CLOG(kInfo, "serve") << "drained " << 3 << " jobs";
  auto logs = recent_logs();
  ASSERT_EQ(logs.size(), 2u);
  EXPECT_EQ(logs[0].component, "gossip");
  EXPECT_EQ(logs[0].level, LogLevel::kWarn);
  EXPECT_EQ(logs[1].message, "drained 3 jobs");
  EXPECT_GE(logs[1].ns, logs[0].ns) << "timestamps must be monotonic";
  const std::string text = format_recent_logs();
  EXPECT_NE(text.find("[gossip]"), std::string::npos);
  EXPECT_NE(text.find("peer 9 unreachable"), std::string::npos);

  // Overflow: the ring retains the newest kLogRingCapacity records.
  for (int i = 0; i < static_cast<int>(kLogRingCapacity) + 40; ++i) {
    AP_CLOG(kDebug, "unit") << "line " << i;
  }
  logs = recent_logs();
  EXPECT_EQ(logs.size(), kLogRingCapacity);
  EXPECT_EQ(logs.back().message,
            "line " + std::to_string(static_cast<int>(kLogRingCapacity) + 39));
  EXPECT_EQ(recent_logs(5).size(), 5u);
  clear_recent_logs();
  set_log_level(before);
}

}  // namespace
}  // namespace autophase
