#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "hls/cycle_estimator.hpp"
#include "interp/interpreter.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "passes/pipelines.hpp"
#include "progen/chstone_like.hpp"
#include "progen/random_program.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", Kind::kTiming},
      {"throughput_per_s", "1/s", Kind::kTiming},
      {"latency_ms_p50", "ms", Kind::kTiming},
      {"latency_ms_tail", "ms", Kind::kTiming},
      {"peak_rss_mb", "MiB", Kind::kTiming},
      {"cpu_ms_per_op", "ms", Kind::kTiming},
      {"cycles_vs_o3", "ratio", Kind::kExact},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"passes.apply_us", "us", Kind::kTiming},
      {"passes.busy_s", "s", Kind::kTiming},
      {"passes.applied", "count", Kind::kExact},
      {"passes.changed_ratio", "ratio", Kind::kExact},
      {"ir.clone_us", "us", Kind::kTiming},
      {"ir.fingerprint_us", "us", Kind::kTiming},
      {"ir.size_after", "count", Kind::kExact},
      {"interp.run_ms", "ms", Kind::kTiming},
      {"interp.busy_s", "s", Kind::kTiming},
      {"interp.insts_per_us", "1/us", Kind::kTiming},
      {"hls.schedule_ms", "ms", Kind::kTiming},
      {"hls.busy_s", "s", Kind::kTiming},
      {"runtime.lookups", "count", Kind::kExact},
      {"runtime.hit_ratio", "ratio", Kind::kExact},
      {"runtime.samples", "count", Kind::kExact},
      {"runtime.profile_busy_s", "s", Kind::kTiming},
      {"features.extract_us_per_row", "us", Kind::kTiming},
      {"ml.forward_us_per_row", "us", Kind::kTiming},
      {"serve.batch_rows_mean", "rows", Kind::kCount},
      {"serve.queue_wait_ms", "ms", Kind::kTiming},
      {"serve.compute_ms", "ms", Kind::kTiming},
      {"serve.hit_ratio", "ratio", Kind::kCount},
      {"net.overhead_ms", "ms", Kind::kTiming},
      {"net.request_bytes", "bytes", Kind::kExact},
      {"net.response_bytes", "bytes", Kind::kExact},
      {"net.codec_us", "us", Kind::kTiming},
      {"rl.env_step_ms", "ms", Kind::kTiming},
      {"rl.rollout_s", "s", Kind::kTiming},
      {"rl.update_s", "s", Kind::kTiming},
      {"rl.straggler_share", "ratio", Kind::kTiming},
      {"rl.samples_per_iter", "count", Kind::kExact},
      {"obs.trace_overhead", "ratio", Kind::kTiming},
      {"obs.unattributed_share", "ratio", Kind::kTiming},
      {"obs.trace_dropped", "count", Kind::kCount},
  };
  return specs;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kTiming: return "timing";
    case Kind::kExact: return "exact";
    case Kind::kCount: return "count";
  }
  return "timing";
}

LayerTrace::LayerTrace() {
  live.set_enabled(true);
  replay.set_enabled(true);
}

bool LayerTrace::live_nearly_full() const {
  return live.recorded() * 10 >= kLiveCapacity * 8;
}

void LayerTrace::record(obs::Tracer& tracer, const obs::TraceContext& self, std::uint64_t parent,
                        const char* name, std::uint64_t start_ns, std::uint64_t end_ns) {
  obs::SpanRecord span;
  span.trace = self.trace;
  span.span = self.span;
  span.parent = parent;
  span.name = name;
  span.start_ns = start_ns;
  span.duration_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  span.thread = obs::current_thread_ordinal();
  tracer.record(std::move(span));
}

namespace {

/// Per-span-name durations and per-layer self time from one tracer (spans
/// named "bench.*" are the benchmark's own roots, not layers).
struct SpanTable {
  std::map<std::string, std::vector<double>> duration_us;  // by span name
  std::map<std::string, double> self_s;                    // by layer
  double unattributed_share = 0.0;
};

SpanTable tabulate(const obs::Tracer& tracer) {
  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  std::vector<SpanTime> times;
  times.reserve(spans.size());
  for (const obs::SpanRecord& s : spans) {
    times.push_back({s.span, s.parent, s.start_ns, s.duration_ns});
  }
  const std::vector<std::uint64_t> self = self_times(times);

  SpanTable table;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    table.duration_us[s.name].push_back(static_cast<double>(s.duration_ns) / 1e3);
    const std::string layer = layer_of(s.name);
    if (layer != "bench") table.self_s[layer] += static_cast<double>(self[i]) / 1e9;
  }
  table.unattributed_share = unattributed_share(times);
  return table;
}

/// Per-layer metrics that are the p50 of one span's durations, with the
/// factor from microseconds to the metric's unit.
struct SpanMetric {
  const char* metric;
  const char* span;
  double per_us;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"passes.apply_us", "passes.apply", 1.0},
    {"ir.clone_us", "ir.clone", 1.0},
    {"ir.fingerprint_us", "ir.fingerprint", 1.0},
    {"interp.run_ms", "interp.run", 1e-3},
    {"hls.schedule_ms", "hls.schedule", 1e-3},
    {"features.extract_us_per_row", "features.extract", 1.0},
    {"ml.forward_us_per_row", "ml.forward", 1.0},
    {"net.codec_us", "net.codec", 1.0},
    {"rl.env_step_ms", "rl.env_step", 1e-3},
    {"rl.rollout_s", "rl.rollout", 1e-6},
    {"rl.update_s", "rl.update", 1e-6},
};

/// Summary of one span's durations in microseconds; prefers `live`, falls
/// back to `replay`, and notes the source and count in the report.
Summary layer_summary(const SpanTable& live, const SpanTable& replay, const std::string& span,
                      const std::string& metric, Report& report) {
  const auto from = [&](const SpanTable& table) -> const std::vector<double>* {
    const auto it = table.duration_us.find(span);
    return it == table.duration_us.end() || it->second.empty() ? nullptr : &it->second;
  };
  const std::vector<double>* samples = from(live);
  const char* source = "live";
  if (samples == nullptr) {
    samples = from(replay);
    source = "replayed";
  }
  if (samples == nullptr) return {};
  const Summary s = summarize(*samples);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s p50 of %s over n=%zu", source, span.c_str(), s.n);
  std::string text = buf;
  if (s.tail_q > 0.0) {
    std::snprintf(buf, sizeof buf, " (p%g=%.4g us)", s.tail_q * 100.0, s.tail);
    text += buf;
  }
  report.provenance[metric] = text;
  return s;
}

}  // namespace

void finish_trace(const Options& options, LayerTrace& trace, double untraced_s_per_op,
                  double traced_s_per_op, Report& report) {
  const SpanTable live = tabulate(trace.live);
  const SpanTable replay = tabulate(trace.replay);
  for (const SpanMetric& m : kSpanMetrics) {
    const Summary s = layer_summary(live, replay, m.span, m.metric, report);
    if (s.n > 0) report.metrics[m.metric] = s.p50 * m.per_us;
  }
  if (replay.self_s.count("passes") != 0) {
    report.metrics["passes.busy_s"] = replay.self_s.at("passes");
    report.provenance["passes.busy_s"] = "replayed: passes self time over the count set";
  }
  report.metrics["obs.trace_overhead"] =
      untraced_s_per_op > 0.0 ? traced_s_per_op / untraced_s_per_op - 1.0 : 0.0;
  report.metrics["obs.unattributed_share"] = live.unattributed_share;
  report.provenance["obs.unattributed_share"] =
      "live: share of root-span time that no leaf span covers";
  report.metrics["obs.trace_dropped"] =
      static_cast<double>(trace.live.dropped() + trace.replay.dropped());

  const auto breakdown = [&report](const char* label, const SpanTable& table) {
    double total = 0.0;
    for (const auto& [layer, s] : table.self_s) total += s;
    std::string line = std::string(label) + " self time by layer:";
    for (const auto& [layer, s] : table.self_s) {
      char buf[96];
      std::snprintf(buf, sizeof buf, " %s %.3fs (%.1f%%)", layer.c_str(), s,
                    total > 0.0 ? 100.0 * s / total : 0.0);
      line += buf;
    }
    report.lines.push_back(line);
  };
  breakdown("live", live);
  breakdown("replayed", replay);

  std::vector<obs::SpanRecord> spans = trace.live.snapshot();
  std::vector<obs::SpanRecord> replayed = trace.replay.snapshot();
  spans.insert(spans.end(), std::make_move_iterator(replayed.begin()),
               std::make_move_iterator(replayed.end()));
  const std::string path = options.out_dir + "/trace-" + options.workload + ".json";
  const autophase::Status written =
      obs::write_chrome_trace(path, obs::chrome_trace_json(spans, "perfbench " + options.workload));
  report.lines.push_back(written.is_ok() ? "trace: " + path + " (" +
                                               std::to_string(spans.size()) + " spans)"
                                         : "trace not written: " + written.message());
}

std::vector<Kernel> load_kernels() {
  namespace ap = autophase;
  std::vector<Kernel> kernels;
  for (const std::string& name : ap::progen::chstone_benchmark_names()) {
    Kernel kernel;
    kernel.module = ap::progen::build_chstone_like(name);
    const auto reference = ap::interp::run_module(*kernel.module);
    if (!reference.is_ok()) throw std::runtime_error(name + " does not run: " + reference.message());
    kernel.return_value = reference.value().return_value;
    kernel.checksum = reference.value().memory_checksum;
    auto o3 = ap::ir::clone_module(*kernel.module);
    ap::passes::run_o3(*o3);
    const auto o3_cycles = ap::hls::profile_cycles(*o3);
    if (!o3_cycles.is_ok()) throw std::runtime_error(name + " -O3 does not run");
    kernel.o3_cycles = o3_cycles.value().cycles;
    kernels.push_back(std::move(kernel));
  }
  return kernels;
}

autophase::rl::EnvConfig paper_env_config() {
  autophase::rl::EnvConfig config;
  config.episode_length = 45;
  config.observation = autophase::rl::ObservationMode::kBoth;
  return config;
}

std::unique_ptr<autophase::ir::Module> banded_random_program(std::uint64_t seed) {
  autophase::SplitMix64 candidates(seed);
  while (true) {
    autophase::progen::GeneratorConfig config;
    config.seed = candidates.next();
    auto program = autophase::progen::generate_random_program(config);
    const std::uint64_t size = autophase::ir::module_ir_size(*program);
    if (size < 1500 || size > 3000) continue;
    // generate_filtered_program's filter (verifies, runs within budget),
    // with the band's tighter instruction budget.
    if (!autophase::ir::verify_module(*program).is_ok()) continue;
    autophase::interp::InterpreterOptions options;
    options.max_instructions = 20000;
    const auto run = autophase::interp::run_module(*program, options);
    if (run.is_ok() && run.value().instructions_executed >= 2000) return program;
  }
}

HostRecord probe_host(std::size_t max_threads) {
  constexpr std::uint64_t kIterations = 20'000'000;
  const auto spin = [] {
    std::uint64_t x = 88172645463325252ull;
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_xor(x, std::memory_order_relaxed);
  };
  const auto wall = [&spin](std::size_t threads) {
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < threads; ++i) workers.emplace_back(spin);
    for (std::thread& w : workers) w.join();
    return seconds_since(t0);
  };
  HostRecord host;
  const double one = wall(1);
  host.spin_ns_per_iter = one * 1e9 / static_cast<double>(kIterations);
  for (std::size_t t = 1; t <= max_threads; ++t) {
    host.spin_speedups.push_back(static_cast<double>(t) * one / wall(t));
  }
  return host;
}

CpuTicks read_cpu_ticks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks ticks;
  if (label != "cpu") return ticks;
  std::uint64_t value = 0;
  for (int column = 0; column < 8 && stat >> value; ++column) {
    ticks.total += value;
    if (column == 7) ticks.steal = value;
  }
  return ticks;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void print_report(const Options& options, const Report& report, const HostRecord& host) {
  const std::vector<MetricSpec>& specs =
      options.trace ? per_layer_specs() : end_to_end_specs();
  const auto value_of = [&report](const char* name) {
    const auto it = report.metrics.find(name);
    return it == report.metrics.end() ? 0.0 : it->second;
  };

  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  std::string spin = "host spin probe: " + json_number(host.spin_ns_per_iter).substr(0, 5) +
                     " ns per iteration on one thread, speedup at 1.." +
                     std::to_string(host.spin_speedups.size()) + " threads:";
  for (const double s : host.spin_speedups) spin += " " + json_number(s).substr(0, 5);
  std::printf("%s\nhost CPU time stolen by other guests during the run: %.1f%%\n", spin.c_str(),
              100.0 * host.steal_share);
  std::printf("error_rate %s (%llu failed of %llu attempted)\n",
              json_number(report.ops.rate()).c_str(),
              static_cast<unsigned long long>(report.ops.failed),
              static_cast<unsigned long long>(report.ops.attempted));
  for (const MetricSpec& spec : specs) {
    const auto source = report.provenance.find(spec.name);
    std::printf("  %-28s %14.6g %-6s [%s]%s%s\n", spec.name, value_of(spec.name), spec.unit,
                kind_name(spec.kind), source == report.provenance.end() ? "" : "  ",
                source == report.provenance.end() ? "" : source->second.c_str());
  }

  std::string metrics;
  std::string detailed;
  for (const MetricSpec& spec : specs) {
    const std::string value = json_number(value_of(spec.name));
    metrics += (metrics.empty() ? "" : ", ") + json_string(spec.name) + ": {\"value\": " + value +
               ", \"unit\": " + json_string(spec.unit) + "}";
    const auto source = report.provenance.find(spec.name);
    detailed += (detailed.empty() ? "" : ", ") + json_string(spec.name) + ": {\"value\": " +
                value + ", \"unit\": " + json_string(spec.unit) +
                ", \"kind\": " + json_string(kind_name(spec.kind)) + ", \"source\": " +
                json_string(source == report.provenance.end() ? "" : source->second) + "}";
  }
  std::string speedups;
  for (const double s : host.spin_speedups) {
    speedups += (speedups.empty() ? "" : ", ") + json_number(s);
  }

  const std::string path = options.out_dir + "/report-" + options.workload + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  std::ofstream(path) << "{\"workload\": " << json_string(options.workload)
                      << ", \"seed\": " << options.seed
                      << ", \"seconds\": " << json_number(options.seconds)
                      << ", \"threads\": " << options.threads
                      << ", \"host_spin_ns_per_iter\": " << json_number(host.spin_ns_per_iter)
                      << ", \"host_spin_speedup\": [" << speedups << "]"
                      << ", \"host_steal_share\": " << json_number(host.steal_share)
                      << ", \"correct\": " << (report.correct ? "true" : "false")
                      << ", \"attempted\": " << report.ops.attempted
                      << ", \"failed\": " << report.ops.failed
                      << ", \"error_rate\": " << json_number(report.ops.rate())
                      << ", \"metrics\": {" << detailed << "}}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              report.correct && report.ops.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.ops.attempted),
              static_cast<unsigned long long>(report.ops.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
