// The three perfbench workloads. Each builds its inputs from options.seed,
// sets up several times (setup_s is the median), measures for
// options.seconds, and checks its outputs outside the timed region. With a
// trace, the run instead splits its time into an untraced and a traced
// phase of the same work and reports the per-layer metrics.
#pragma once

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace perfbench {

Report run_eval_search(const Options& options, LayerTrace* trace);
Report run_serve_mix(const Options& options, LayerTrace* trace);
Report run_train_ppo(const Options& options, LayerTrace* trace);

/// Set-ups per run: at least kMinSetups, then more while they have taken
/// less than kSetupBudgetS in all, up to kMaxSetups. setup_s reports their
/// median, so a cheap set-up is sampled more often than a costly one.
inline constexpr std::size_t kMinSetups = 5;
inline constexpr std::size_t kMaxSetups = 25;
inline constexpr double kSetupBudgetS = 2.0;
/// Median over consecutive windows of at least `window_s` busy seconds of
/// (operations / busy seconds): a throughput that a burst of interference
/// from other tenants moves less than one total would.
inline double windowed_rate(const std::vector<double>& ops, const std::vector<double>& busy_s,
                            double window_s) {
  std::vector<double> rates;
  double window_ops = 0.0;
  double window_busy = 0.0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    window_ops += ops[i];
    window_busy += busy_s[i];
    if (window_busy >= window_s) {
      rates.push_back(window_ops / window_busy);
      window_ops = window_busy = 0.0;
    }
  }
  if (rates.empty() && window_busy > 0.0) rates.push_back(window_ops / window_busy);
  return quantile(rates, 0.5);
}

/// Share of a traced run's time spent in its untraced phase.
inline constexpr double kUntracedShare = 0.4;

/// Runs `make` as often as the set-up rule above says, keeps the last
/// result, and stores the median set-up time in `median_s`.
template <class Make>
auto timed_setup(Make make, double& median_s) {
  std::vector<double> times;
  double total_s = 0.0;
  const auto once = [&] {
    const auto t0 = Clock::now();
    auto made = make();
    times.push_back(seconds_since(t0));
    total_s += times.back();
    return made;
  };
  auto setup = once();
  while (times.size() < kMinSetups || (times.size() < kMaxSetups && total_s < kSetupBudgetS)) {
    setup = once();
  }
  median_s = quantile(times, 0.5);
  return setup;
}

/// Runs body(i) for i in [0, n) on n threads and joins them; the first
/// exception a body throws is rethrown after every thread has ended.
template <class Body>
void run_threads(std::size_t n, const Body& body) {
  std::exception_ptr failure;
  std::mutex failure_mutex;
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        try {
          body(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
      });
    }
  }
  if (failure) std::rethrow_exception(failure);
}

/// Fixed tail percentile of a workload's latency, with a note when the run
/// collected fewer than ten samples beyond it.
inline void report_latency(const std::vector<double>& samples_ms, double tail_q,
                           const std::string& what, Report& report) {
  const Summary s = summarize(samples_ms);
  report.metrics["latency_ms_p50"] = s.p50;
  report.metrics["latency_ms_tail"] = quantile(samples_ms, tail_q);
  const std::size_t beyond = samples_beyond(s.n, tail_q);
  report.provenance["latency_ms_p50"] = "p50 of " + std::to_string(s.n) + " " + what;
  report.provenance["latency_ms_tail"] =
      "p" + json_number(tail_q * 100.0) + " of " + std::to_string(s.n) + " " + what + ", " +
      std::to_string(beyond) + " beyond" + (beyond < 10 ? " (FEWER THAN 10)" : "");
}

}  // namespace perfbench
