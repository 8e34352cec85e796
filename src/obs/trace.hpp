// End-to-end request tracing. A TraceContext (128-bit trace id + 64-bit span
// id) is allocated when a compile request enters the system and rides the
// request through every stage — bounded queue, each beam-decode step and its
// policy forward, the eval-cache lookup — and across the wire (a tagged optional field
// on the compile-request payload), so a remote compile stitches client and
// owning-node spans into one trace.
//
// Finished spans land in a lock-striped bounded ring buffer with drop
// accounting: tracing a long-running node costs O(capacity) memory forever,
// and under burst the oldest spans in a stripe are overwritten (counted, so
// an exported trace says how much it lost). Export is Chrome trace-event
// JSON ("traceEvents" with ph:"X" complete events), loadable directly in
// Perfetto; SimWorld's chaos traces export through the same writer, so a
// production trace and a simulated partition are viewed with one tool.
//
// Cheap by construction: when tracing is disabled, AP_SPAN costs exactly one
// relaxed atomic load and branch — no clock reads, no allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/status.hpp"

namespace autophase::obs {

/// 128-bit trace identity. Zero means "not traced" — the serving path treats
/// an all-zero context as tracing-off and records nothing for the request.
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool valid() const noexcept { return (hi | lo) != 0; }
  [[nodiscard]] bool operator==(const TraceId& o) const noexcept {
    return hi == o.hi && lo == o.lo;
  }
  /// 32 hex chars, the id Perfetto shows and tests compare.
  [[nodiscard]] std::string hex() const;
};

struct TraceContext {
  TraceId trace{};
  std::uint64_t span = 0;    // the current (parent-to-be) span id
  [[nodiscard]] bool valid() const noexcept { return trace.valid(); }
};

/// One finished span. Attributes are small (stage facts: queue depth at
/// entry, batch rows folded into, cache hit/miss, model version served) and
/// stringified at record time.
struct SpanRecord {
  TraceId trace{};
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::uint64_t start_ns = 0;  // steady-clock nanos (one clock per process)
  std::uint64_t duration_ns = 0;
  std::uint64_t thread = 0;  // stable per-thread ordinal (Perfetto tid)
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Steady-clock nanos from the tracer's epoch — the one timestamp source
/// every span (and the structured log ring) shares.
std::uint64_t trace_now_ns() noexcept;

/// Stable small ordinal for the calling thread (what SpanRecord::thread and
/// the Perfetto tid columns carry) — for hand-assembled spans whose start
/// predates the record site (queue-wait spans backdated to enqueue time).
std::uint64_t current_thread_ordinal() noexcept;

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;
  static constexpr std::size_t kStripes = 8;  // power of two

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Tracing switch; off (the default) makes begin() return invalid
  /// contexts and record() drop instantly, so instrumented code costs one
  /// branch.
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// New root context (fresh 128-bit trace id). Invalid when disabled.
  TraceContext begin_trace() noexcept;
  /// Child context: same trace, fresh span id, parent = ctx.span.
  TraceContext child_of(const TraceContext& ctx) noexcept;
  /// Fresh span id (for spans recorded under an existing context).
  std::uint64_t next_span_id() noexcept;

  /// Stores one finished span (no-op on invalid trace or disabled tracer).
  void record(SpanRecord span);

  /// Every retained span, ordered by start time. `dropped` (optional)
  /// reports ring overwrites since the last clear().
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  [[nodiscard]] std::uint64_t recorded() const noexcept;
  void clear();

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::vector<SpanRecord> ring;  // capacity_/kStripes slots
    std::size_t next = 0;
    std::uint64_t total = 0;  // spans ever recorded into this stripe
  };

  std::size_t stripe_capacity_ = 0;
  std::vector<Stripe> stripes_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_span_{1};
  std::atomic<std::uint64_t> trace_counter_{1};
  std::uint64_t process_seed_ = 0;  // mixes into trace ids: unique across processes
};

/// Process-wide tracer (all in-process nodes share it; their spans are
/// already separated by trace id).
Tracer& tracer();

/// Chrome trace-event JSON ("traceEvents" array of ph:"X" events, ts/dur in
/// microseconds, trace/span ids in args) — open in Perfetto or
/// chrome://tracing. `process_name` labels the emitting process.
std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::string& process_name = "autophase");

/// Extra Chrome trace events appended from non-span sources (SimWorld's
/// chaos timeline). ts is microseconds; events render as instant events on
/// a per-source track.
struct InstantEvent {
  std::uint64_t ts_us = 0;
  std::string name;
  std::string track;  // rendered as the tid label
  std::vector<std::pair<std::string, std::string>> attrs;
};
std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::vector<InstantEvent>& instants,
                              const std::string& process_name);

Status write_chrome_trace(const std::string& path, const std::string& json);

/// RAII span: stamps start on construction, records on destruction. Only
/// arms itself when `tracer` is enabled AND `ctx` is valid, so the disabled
/// cost is one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const TraceContext& ctx, const char* name) noexcept;
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The context children of this span should carry.
  [[nodiscard]] TraceContext context() const noexcept { return ctx_; }
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  void attr(const char* key, std::string value);
  /// Without this overload a string literal would convert to bool, not
  /// std::string (standard conversions outrank user-defined ones).
  void attr(const char* key, const char* value);
  void attr(const char* key, std::uint64_t value);
  void attr(const char* key, std::int64_t value);
  void attr(const char* key, bool value);

 private:
  Tracer* tracer_ = nullptr;
  TraceContext ctx_{};  // this span's own (trace, span); parent in parent_
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  const char* name_ = "";
  bool armed_ = false;
  std::vector<std::pair<std::string, std::string>> attrs_;
};

}  // namespace autophase::obs

/// Scoped span against the process tracer; compiles to one branch when off.
#define AP_SPAN(var, ctx, name) ::autophase::obs::ScopedSpan var(::autophase::obs::tracer(), ctx, name)
