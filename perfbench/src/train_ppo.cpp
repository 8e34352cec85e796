// train_ppo: fixed-seed PpoTrainer::iterate() over a runtime::VecEnv of four
// PhaseOrderEnv lanes on a thread pool, on a seeded random-program corpus at
// the paper's settings (episode length 45, features plus histogram
// observation, 256x256 hidden layers). The only workload where backward and
// Adam run, and where rollout waits on the slowest lane.
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "features/features.hpp"
#include "hls/cycle_estimator.hpp"
#include "ir/clone.hpp"
#include "passes/pass.hpp"
#include "replay.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "runtime/vec_env.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ap = autophase;
using ap::ir::Module;

constexpr std::size_t kLanes = 4;
constexpr std::size_t kCorpus = 32;
constexpr int kStepsPerIteration = 256;
/// Trainer and VecEnv seed. Fixed ("fixed-seed PpoTrainer"): the workload
/// seed picks the corpus.
constexpr std::uint64_t kTrainerSeed = 1;

struct Interval {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// A completed episode: the corpus program and the passes applied.
struct Episode {
  std::size_t program = 0;
  std::vector<int> sequence;
};

/// Where TimedEnv records spans; run_iterations points it at the current
/// iteration's rollout span before each traced iterate().
struct Probe {
  obs::Tracer* tracer = nullptr;
  obs::TraceContext parent{};
};

/// Benchmark-owned rl::Env decorator: times every step of one lane (an
/// auto-reset after a final step counts toward that step) and remembers the
/// actions of each episode for the replay.
class TimedEnv final : public ap::rl::Env {
 public:
  TimedEnv(std::unique_ptr<ap::rl::PhaseOrderEnv> inner, const Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::vector<double> reset() override {
    std::vector<double> observation = inner_->reset();
    if (!steps_.empty() && after_final_step_) steps_.back().end_ns = obs::trace_now_ns();
    after_final_step_ = false;
    actions_.clear();
    return observation;
  }

  ap::rl::StepResult step(const std::vector<std::size_t>& action) override {
    const std::uint64_t start_ns = obs::trace_now_ns();
    ap::rl::StepResult result = inner_->step(action);
    const std::uint64_t end_ns = obs::trace_now_ns();
    steps_.push_back({start_ns, end_ns});
    if (probe_.tracer != nullptr) {
      LayerTrace::record(*probe_.tracer, probe_.tracer->child_of(probe_.parent),
                         probe_.parent.span, "rl.env_step", start_ns, end_ns);
    }
    actions_.push_back(static_cast<int>(action[0]));
    if (result.done) {
      episodes_.push_back({inner_->current_program(), actions_});
      after_final_step_ = true;
    }
    return result;
  }

  [[nodiscard]] std::size_t observation_size() const override { return inner_->observation_size(); }
  [[nodiscard]] std::size_t action_groups() const override { return inner_->action_groups(); }
  [[nodiscard]] std::size_t action_arity() const override { return inner_->action_arity(); }
  [[nodiscard]] std::size_t sample_count() const override { return inner_->sample_count(); }

  [[nodiscard]] const std::vector<Episode>& episodes() const { return episodes_; }
  /// Step intervals since the last call.
  std::vector<Interval> take_steps() { return std::exchange(steps_, {}); }

 private:
  std::unique_ptr<ap::rl::PhaseOrderEnv> inner_;
  const Probe& probe_;
  std::vector<Interval> steps_;
  std::vector<int> actions_;
  std::vector<Episode> episodes_;
  bool after_final_step_ = false;
};

std::vector<std::unique_ptr<Module>> make_corpus(std::uint64_t seed) {
  std::vector<std::unique_ptr<Module>> corpus;
  for (std::size_t i = 0; i < kCorpus; ++i) corpus.push_back(banded_random_program(seed * 7919 + i));
  return corpus;
}

/// One set-up: the scoring kernels, a shared EvalService primed with the
/// corpus baselines, the four timed lanes (each resets round-robin through
/// the corpus, so the lanes of a step batch work on one program), the
/// VecEnv and the trainer.
struct Trainer {
  std::vector<Kernel> kernels;  // scored for cycles_vs_o3
  std::unique_ptr<Probe> probe = std::make_unique<Probe>();
  std::unique_ptr<ap::ThreadPool> pool;
  std::shared_ptr<ap::runtime::EvalService> eval;
  std::unique_ptr<ap::runtime::VecEnv> vec;
  std::vector<TimedEnv*> lanes;
  std::unique_ptr<ap::rl::PpoTrainer> trainer;
};

Trainer set_up(const std::vector<std::unique_ptr<Module>>& corpus, std::size_t threads) {
  Trainer t;
  t.kernels = load_kernels();
  if (threads > 1) t.pool = std::make_unique<ap::ThreadPool>(threads);
  t.eval = std::make_shared<ap::runtime::EvalService>();
  for (const auto& program : corpus) (void)t.eval->measure(*program);
  ap::rl::EnvConfig config = paper_env_config();
  config.eval_service = t.eval;
  t.lanes.resize(kLanes);
  std::vector<const Module*> programs;
  for (const auto& program : corpus) programs.push_back(program.get());
  const auto factory = [&](std::size_t w, ap::Rng) -> std::unique_ptr<ap::rl::Env> {
    auto lane = std::make_unique<TimedEnv>(
        std::make_unique<ap::rl::PhaseOrderEnv>(programs, config), *t.probe);
    t.lanes[w] = lane.get();
    return lane;
  };
  ap::runtime::VecEnvConfig vec_config;
  vec_config.num_envs = kLanes;
  vec_config.seed = kTrainerSeed;
  vec_config.pool = t.pool.get();
  t.vec = std::make_unique<ap::runtime::VecEnv>(factory, vec_config);
  ap::rl::PpoConfig ppo;
  ppo.hidden = {256, 256};
  ppo.seed = kTrainerSeed;
  ppo.steps_per_iteration = kStepsPerIteration;
  t.trainer = std::make_unique<ap::rl::PpoTrainer>(*t.vec, ppo);
  return t;
}

bool same_stats(const ap::rl::IterationStats& a, const ap::rl::IterationStats& b) {
  return a.iteration == b.iteration && a.episode_reward_mean == b.episode_reward_mean &&
         a.env_samples == b.env_samples && a.policy_entropy == b.policy_entropy;
}

struct IterationLoop {
  std::vector<double> iteration_ms;
  std::vector<double> step_batch_ms;  // slowest lane end - first lane start
  double straggler_ns = 0.0;          // sum over step batches of (slowest - mean lane)
  double slowest_ns = 0.0;            // sum over step batches of the slowest lane
  std::size_t transitions = 0;
  double busy_s = 0.0;
};

/// Runs iterations for `seconds` (at least `min_iterations`). Traced, each
/// iteration is a bench.iteration span with rl.rollout (start to the last
/// env step) and rl.update (the rest) children; env steps nest in rollout.
void run_iterations(Trainer& t, double seconds, std::size_t min_iterations, LayerTrace* trace,
                    IterationLoop& out, std::vector<ap::rl::IterationStats>& stats) {
  const auto start = Clock::now();
  while (out.iteration_ms.size() < min_iterations || seconds_since(start) < seconds) {
    if (trace != nullptr && trace->live_nearly_full()) break;
    std::optional<obs::ScopedSpan> root;
    obs::TraceContext rollout{};
    if (trace != nullptr) {
      root.emplace(trace->live, trace->live.begin_trace(), "bench.iteration");
      rollout = trace->live.child_of(root->context());
      *t.probe = {&trace->live, rollout};
    }
    const std::uint64_t begin_ns = obs::trace_now_ns();
    stats.push_back(t.trainer->iterate());
    const std::uint64_t end_ns = obs::trace_now_ns();
    *t.probe = {};

    std::vector<std::vector<Interval>> lanes;
    std::size_t batches = ~std::size_t{0};
    std::uint64_t last_step_ns = begin_ns;
    for (TimedEnv* lane : t.lanes) {
      lanes.push_back(lane->take_steps());
      batches = std::min(batches, lanes.back().size());
      if (!lanes.back().empty()) last_step_ns = std::max(last_step_ns, lanes.back().back().end_ns);
    }
    for (std::size_t j = 0; j < batches; ++j) {
      std::uint64_t first = ~std::uint64_t{0};
      std::uint64_t last = 0;
      double slowest = 0.0;
      double total = 0.0;
      for (const auto& lane : lanes) {
        first = std::min(first, lane[j].start_ns);
        last = std::max(last, lane[j].end_ns);
        const double d = static_cast<double>(lane[j].end_ns - lane[j].start_ns);
        slowest = std::max(slowest, d);
        total += d;
      }
      out.step_batch_ms.push_back(static_cast<double>(last - first) / 1e6);
      out.slowest_ns += slowest;
      out.straggler_ns += slowest - total / static_cast<double>(lanes.size());
    }
    if (trace != nullptr) {
      LayerTrace::record(trace->live, rollout, root->context().span, "rl.rollout", begin_ns,
                         last_step_ns);
      LayerTrace::record(trace->live, trace->live.child_of(root->context()),
                         root->context().span, "rl.update", last_step_ns, end_ns);
    }
    out.iteration_ms.push_back(static_cast<double>(end_ns - begin_ns) / 1e6);
    out.busy_s += static_cast<double>(end_ns - begin_ns) / 1e9;
    out.transitions += static_cast<std::size_t>(kStepsPerIteration);
  }
}

/// cycles_vs_o3: the trainer's greedy policy, as set up, decodes 45 passes
/// on each of the nine kernels; geomean of their cycles over -O3 cycles.
/// Scored before training and on fixed kernels because both the seed's
/// random corpus and one update on it swing the ratio by tens of percent
/// from seed to seed.
double initial_policy_quality(const Trainer& t) {
  std::vector<int> all_features(ap::features::kNumFeatures);
  std::iota(all_features.begin(), all_features.end(), 0);
  const ap::rl::EnvConfig config = paper_env_config();
  std::vector<double> ratios;
  for (const Kernel& kernel : t.kernels) {
    auto module = ap::ir::clone_module(*kernel.module);
    std::vector<double> histogram(ap::passes::kNumPasses, 0.0);
    for (int step = 0; step < config.episode_length; ++step) {
      const std::size_t action = t.trainer->act_greedy(
          ap::rl::build_observation(*module, histogram, config, all_features))[0];
      ap::passes::apply_pass(*module, static_cast<int>(action));
      histogram[action] += 1.0;
    }
    const auto cycles = ap::hls::profile_cycles(*module);
    if (!cycles.is_ok()) throw std::runtime_error("a decoded kernel does not run");
    ratios.push_back(static_cast<double>(cycles.value().cycles) /
                     static_cast<double>(kernel.o3_cycles));
  }
  return geomean(ratios);
}

}  // namespace

Report run_train_ppo(const Options& options, LayerTrace* trace) {
  Report report;
  const std::vector<std::unique_ptr<Module>> corpus = make_corpus(options.seed);
  double setup_s = 0.0;
  Trainer t = timed_setup([&] { return set_up(corpus, options.threads); }, setup_s);
  report.metrics["setup_s"] = setup_s;
  report.metrics["cycles_vs_o3"] = initial_policy_quality(t);
  report.provenance["cycles_vs_o3"] =
      "geomean over the nine kernels of the initial greedy policy's cycles / -O3 cycles";

  // The first iteration of a fresh set-up is deterministic: it is the check
  // iteration and the source of every exact count. It is not measured.
  IterationLoop first_loop;
  std::vector<ap::rl::IterationStats> stats;
  run_iterations(t, 0.0, 1, nullptr, first_loop, stats);
  const ap::rl::IterationStats first = stats.front();
  const ap::runtime::EvalStats first_eval = t.eval->stats();
  std::vector<ReplayItem> items;
  for (const TimedEnv* lane : t.lanes) {
    for (const Episode& e : lane->episodes()) items.push_back({corpus[e.program].get(), e.sequence});
  }

  IterationLoop untraced;
  IterationLoop traced;
  std::uint64_t profile_nanos = 0;
  double cpu_s = 0.0;
  if (trace == nullptr) {
    const double cpu0 = process_cpu_s();
    run_iterations(t, options.seconds - first_loop.busy_s, 1, nullptr, untraced, stats);
    cpu_s = process_cpu_s() - cpu0;
    report.metrics["peak_rss_mb"] = peak_rss_mb();  // before the check's second set-up
  } else {
    run_iterations(t, options.seconds * kUntracedShare - first_loop.busy_s, 1, nullptr, untraced,
                   stats);
    const std::uint64_t nanos0 = t.eval->stats().eval_nanos;
    run_iterations(t, options.seconds * (1.0 - kUntracedShare), 1, trace, traced, stats);
    profile_nanos = t.eval->stats().eval_nanos - nanos0;
  }
  report.ops.attempted += first_loop.transitions + untraced.transitions + traced.transitions;

  // Output check: the first iteration without the pool must match.
  Trainer serial = set_up(corpus, 1);
  const ap::rl::IterationStats serial_first = serial.trainer->iterate();
  report.ops.record(same_stats(first, serial_first));
  if (!same_stats(first, serial_first)) report.fail("pooled and serial first iterations differ");

  if (trace == nullptr) {
    std::vector<double> ops(untraced.iteration_ms.size(), kStepsPerIteration);
    std::vector<double> busy_s;
    for (const double ms : untraced.iteration_ms) busy_s.push_back(ms / 1e3);
    report.metrics["throughput_per_s"] = windowed_rate(ops, busy_s, 0.0);
    report.provenance["throughput_per_s"] =
        "median over iterations of env transitions per second, update included";
    const Summary iterations = summarize(untraced.iteration_ms);
    report.metrics["latency_ms_p50"] = iterations.p50;
    report.provenance["latency_ms_p50"] =
        "p50 of " + std::to_string(iterations.n) + " PpoTrainer::iterate calls";
    report.metrics["latency_ms_tail"] = quantile(untraced.step_batch_ms, 0.9);
    report.provenance["latency_ms_tail"] =
        "p90 of " + std::to_string(untraced.step_batch_ms.size()) +
        " VecEnv step batches (first lane start to slowest lane end)";
    report.metrics["cpu_ms_per_op"] = cpu_s * 1e3 / static_cast<double>(untraced.transitions);
    report.provenance["cpu_ms_per_op"] = "process CPU time per env transition, update included";
    return report;
  }

  const ReplayCounts counts = replay_decode(items, &t.trainer->policy(), paper_env_config(),
                                                trace->replay);
  report_counts(counts, first_eval, "set-up and the first iteration of a fresh set-up",
                static_cast<double>(profile_nanos) / 1e9, report);
  report.metrics["rl.samples_per_iter"] = static_cast<double>(first.env_samples);
  report.provenance["rl.samples_per_iter"] = "count set: IterationStats of the first iteration";

  report.metrics["rl.straggler_share"] =
      traced.slowest_ns > 0.0 ? traced.straggler_ns / traced.slowest_ns : 0.0;
  report.provenance["rl.straggler_share"] =
      "live: sum over step batches of (slowest - mean lane step) / slowest lane step";
  finish_trace(options, *trace,
               untraced.busy_s / static_cast<double>(untraced.transitions),
               traced.busy_s / static_cast<double>(std::max<std::size_t>(1, traced.transitions)),
               report);
  return report;
}

}  // namespace perfbench
