// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload eval_search|serve_mix|train_ppo --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and write a Chrome/Perfetto trace to DIR. The last
// stdout line is the one-line JSON result. perfbench/run.py builds this
// binary from the checkout and runs it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      options.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload eval_search|serve_mix|train_ppo --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  options.threads = std::clamp<std::size_t>(hardware == 0 ? 1 : hardware, 1, 4);

  try {
    perfbench::HostRecord host = perfbench::probe_host(options.threads);
    const perfbench::CpuTicks ticks0 = perfbench::read_cpu_ticks();
    perfbench::LayerTrace trace_storage;
    perfbench::LayerTrace* trace = options.trace ? &trace_storage : nullptr;
    perfbench::Report report;
    if (options.workload == "eval_search") {
      report = perfbench::run_eval_search(options, trace);
    } else if (options.workload == "serve_mix") {
      report = perfbench::run_serve_mix(options, trace);
    } else if (options.workload == "train_ppo") {
      report = perfbench::run_train_ppo(options, trace);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
    const perfbench::CpuTicks ticks1 = perfbench::read_cpu_ticks();
    if (ticks1.total > ticks0.total) {
      host.steal_share = static_cast<double>(ticks1.steal - ticks0.steal) /
                         static_cast<double>(ticks1.total - ticks0.total);
    }
    perfbench::print_report(options, report, host);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
