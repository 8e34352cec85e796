#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "support/hash.hpp"
#include "support/str.hpp"

namespace autophase::obs {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

/// Stable small ordinal per thread (raw ids are opaque and enormous).
std::uint64_t thread_ordinal() {
  static std::atomic<std::uint64_t> next{1};
  thread_local std::uint64_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strf("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_args(std::string& out,
                 const std::vector<std::pair<std::string, std::string>>& attrs) {
  for (const auto& [key, value] : attrs) {
    out += ",\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
  }
}

}  // namespace

std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch).count());
}

std::uint64_t current_thread_ordinal() noexcept { return thread_ordinal(); }

std::string TraceId::hex() const { return strf("%016llx%016llx",
                                               static_cast<unsigned long long>(hi),
                                               static_cast<unsigned long long>(lo)); }

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(std::size_t capacity) {
  stripe_capacity_ = std::max<std::size_t>(1, capacity / kStripes);
  stripes_ = std::vector<Stripe>(kStripes);
  // Seed trace-id uniqueness from the epoch + this object's address: two
  // processes (or two tracers) can never mint colliding 128-bit ids even
  // though the low word is a plain counter. Not an RNG on purpose — tracing
  // must never perturb seeded determinism elsewhere.
  process_seed_ = hash_combine(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count()),
      reinterpret_cast<std::uintptr_t>(this));
}

TraceContext Tracer::begin_trace() noexcept {
  if (!enabled()) return {};
  TraceContext ctx;
  ctx.trace.hi = process_seed_;
  ctx.trace.lo = trace_counter_.fetch_add(1, std::memory_order_relaxed);
  ctx.span = 0;  // root spans have no parent
  return ctx;
}

TraceContext Tracer::child_of(const TraceContext& ctx) noexcept {
  if (!ctx.valid()) return {};
  TraceContext child = ctx;
  child.span = next_span_id();
  return child;
}

std::uint64_t Tracer::next_span_id() noexcept {
  return next_span_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(SpanRecord span) {
  if (!enabled() || !span.trace.valid()) return;
  Stripe& stripe = stripes_[span.span % kStripes];
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  ++stripe.total;
  if (stripe.ring.size() < stripe_capacity_) {
    stripe.ring.push_back(std::move(span));
  } else {
    // Bounded: overwrite the oldest slot in this stripe (counted as a drop).
    stripe.ring[stripe.next] = std::move(span);
    stripe.next = (stripe.next + 1) % stripe_capacity_;
  }
}

std::vector<SpanRecord> Tracer::snapshot() const {
  std::vector<SpanRecord> out;
  for (const Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    out.insert(out.end(), stripe.ring.begin(), stripe.ring.end());
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.span < b.span;
  });
  return out;
}

std::uint64_t Tracer::dropped() const noexcept {
  std::uint64_t dropped = 0;
  for (const Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    dropped += stripe.total - stripe.ring.size();
  }
  return dropped;
}

std::uint64_t Tracer::recorded() const noexcept {
  std::uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    total += stripe.total;
  }
  return total;
}

void Tracer::clear() {
  for (Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.ring.clear();
    stripe.next = 0;
    stripe.total = 0;
  }
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::string& process_name) {
  return chrome_trace_json(spans, {}, process_name);
}

std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const std::vector<InstantEvent>& instants,
                              const std::string& process_name) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",";
    first = false;
  };
  sep();
  out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"" +
         json_escape(process_name) + "\"}}";
  for (const SpanRecord& span : spans) {
    sep();
    out += strf("{\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"name\":\"",
                static_cast<unsigned long long>(span.thread),
                static_cast<double>(span.start_ns) / 1e3,
                static_cast<double>(span.duration_ns) / 1e3);
    out += json_escape(span.name);
    out += "\",\"args\":{\"trace_id\":\"" + span.trace.hex() + "\"";
    out += strf(",\"span_id\":\"%016llx\"", static_cast<unsigned long long>(span.span));
    if (span.parent != 0) {
      out += strf(",\"parent_id\":\"%016llx\"", static_cast<unsigned long long>(span.parent));
    }
    append_args(out, span.attrs);
    out += "}}";
  }
  // Instant events ride separate named tracks (tid strings via metadata are
  // overkill; a large fixed tid offset keeps them off the span threads).
  std::vector<std::string> tracks;
  for (const InstantEvent& ev : instants) {
    if (std::find(tracks.begin(), tracks.end(), ev.track) == tracks.end()) {
      tracks.push_back(ev.track);
    }
    const auto tid =
        900 + (std::find(tracks.begin(), tracks.end(), ev.track) - tracks.begin());
    sep();
    out += strf("{\"ph\":\"i\",\"pid\":1,\"tid\":%lld,\"ts\":%.3f,\"s\":\"t\",\"name\":\"",
                static_cast<long long>(tid), static_cast<double>(ev.ts_us));
    out += json_escape(ev.name);
    out += "\",\"args\":{";
    bool first_attr = true;
    for (const auto& [key, value] : ev.attrs) {
      if (!first_attr) out += ",";
      first_attr = false;
      out += '"';
      out += json_escape(key);
      out += "\":\"";
      out += json_escape(value);
      out += '"';
    }
    out += "}}";
  }
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    sep();
    out += strf("{\"ph\":\"M\",\"pid\":1,\"tid\":%lld,\"name\":\"thread_name\","
                "\"args\":{\"name\":\"",
                static_cast<long long>(900 + i));
    out += json_escape(tracks[i]);
    out += "\"}}";
  }
  out += "]}";
  return out;
}

Status write_chrome_trace(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::error(strf("cannot open trace file %s", path.c_str()));
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::error(strf("short write to trace file %s", path.c_str()));
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// ScopedSpan
// ---------------------------------------------------------------------------

ScopedSpan::ScopedSpan(Tracer& tracer, const TraceContext& ctx, const char* name) noexcept {
  if (!tracer.enabled() || !ctx.valid()) return;  // the single disabled branch
  tracer_ = &tracer;
  parent_ = ctx.span;
  ctx_ = tracer.child_of(ctx);
  name_ = name;
  start_ns_ = trace_now_ns();
  armed_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  SpanRecord span;
  span.trace = ctx_.trace;
  span.span = ctx_.span;
  span.parent = parent_;
  span.name = name_;
  span.start_ns = start_ns_;
  span.duration_ns = trace_now_ns() - start_ns_;
  span.thread = thread_ordinal();
  span.attrs = std::move(attrs_);
  tracer_->record(std::move(span));
}

void ScopedSpan::attr(const char* key, std::string value) {
  if (armed_) attrs_.emplace_back(key, std::move(value));
}
void ScopedSpan::attr(const char* key, const char* value) {
  if (armed_) attrs_.emplace_back(key, value);
}
void ScopedSpan::attr(const char* key, std::uint64_t value) {
  if (armed_) attrs_.emplace_back(key, strf("%llu", static_cast<unsigned long long>(value)));
}
void ScopedSpan::attr(const char* key, std::int64_t value) {
  if (armed_) attrs_.emplace_back(key, strf("%lld", static_cast<long long>(value)));
}
void ScopedSpan::attr(const char* key, bool value) {
  if (armed_) attrs_.emplace_back(key, value ? "true" : "false");
}

}  // namespace autophase::obs
