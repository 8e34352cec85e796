#include "replay.hpp"

#include <numeric>

#include "features/features.hpp"
#include "hls/cycle_estimator.hpp"
#include "hls/scheduler.hpp"
#include "interp/interpreter.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "passes/pass.hpp"

namespace perfbench {

namespace ap = autophase;

ReplayCounts replay_decode(const std::vector<ReplayItem>& items, const ap::ml::Mlp* policy,
                           const ap::rl::EnvConfig& env, obs::Tracer& tracer) {
  std::vector<int> all_features(ap::features::kNumFeatures);
  std::iota(all_features.begin(), all_features.end(), 0);
  ReplayCounts counts;
  for (const ReplayItem& item : items) {
    const obs::ScopedSpan root(tracer, tracer.begin_trace(), "bench.replay");
    const obs::TraceContext ctx = root.context();
    std::unique_ptr<ap::ir::Module> module;
    {
      const obs::ScopedSpan span(tracer, ctx, "ir.clone");
      module = ap::ir::clone_module_for_rollout(*item.program);
    }
    std::vector<double> histogram(ap::passes::kNumPasses, 0.0);
    for (const int pass : item.sequence) {
      if (policy != nullptr) {
        {
          const obs::ScopedSpan span(tracer, ctx, "features.extract");
          (void)ap::features::extract_features(*module);
        }
        const std::vector<double> observation =
            ap::rl::build_observation(*module, histogram, env, all_features);
        const obs::ScopedSpan span(tracer, ctx, "ml.forward");
        (void)policy->forward_batch(std::vector<std::vector<double>>{observation});
      }
      {
        const obs::ScopedSpan span(tracer, ctx, "passes.apply");
        counts.changed += ap::passes::apply_pass(*module, pass) ? 1 : 0;
      }
      if (policy != nullptr) {
        const obs::ScopedSpan span(tracer, ctx, "ir.fingerprint");
        (void)ap::ir::module_fingerprint(*module);
      }
      ++counts.applied;
      if (pass >= 0 && pass < ap::passes::kNumPasses) histogram[static_cast<std::size_t>(pass)] += 1.0;
    }
    if (policy == nullptr) {
      const obs::ScopedSpan span(tracer, ctx, "ir.fingerprint");
      (void)ap::ir::module_fingerprint(*module);
    }
    counts.size_after += ap::ir::module_ir_size(*module);
    ++counts.items;

    const auto t0 = Clock::now();
    auto run = [&] {
      const obs::ScopedSpan span(tracer, ctx, "interp.run");
      return ap::interp::run_module(*module, env.interp_options);
    }();
    const auto t1 = Clock::now();
    if (!run.is_ok()) continue;
    counts.instructions += run.value().instructions_executed;
    {
      const obs::ScopedSpan span(tracer, ctx, "hls.schedule");
      const ap::hls::ModuleSchedule schedule = ap::hls::schedule_module(*module, env.constraints);
      (void)ap::hls::estimate_cycles(schedule, run.value().profile, env.constraints);
      (void)ap::hls::estimate_area(*module);
    }
    counts.interp_s += std::chrono::duration<double>(t1 - t0).count();
    counts.hls_s += seconds_since(t1);
  }
  return counts;
}

void report_counts(const ReplayCounts& counts, const ap::runtime::EvalStats& count_set,
                   const char* count_set_source, double profile_busy_s, Report& report) {
  report.metrics["runtime.lookups"] =
      static_cast<double>(count_set.hits + count_set.sequence_hits + count_set.misses);
  report.metrics["runtime.hit_ratio"] = count_set.hit_rate();
  report.metrics["runtime.samples"] = static_cast<double>(count_set.misses);
  for (const char* name : {"runtime.lookups", "runtime.hit_ratio", "runtime.samples"}) {
    report.provenance[name] = std::string("count set: ") + count_set_source;
  }
  report.metrics["runtime.profile_busy_s"] = profile_busy_s;
  report.provenance["runtime.profile_busy_s"] = "live: EvalStats::eval_nanos of the traced phase";

  report.metrics["passes.applied"] = static_cast<double>(counts.applied);
  report.metrics["passes.changed_ratio"] =
      counts.applied == 0 ? 0.0
                          : static_cast<double>(counts.changed) / static_cast<double>(counts.applied);
  report.metrics["ir.size_after"] =
      counts.items == 0 ? 0.0
                        : static_cast<double>(counts.size_after) / static_cast<double>(counts.items);
  report.provenance["passes.applied"] =
      "count set, replayed: total length of the count set's sequences";
  report.provenance["passes.changed_ratio"] = "count set, replayed";
  report.provenance["ir.size_after"] = "count set, replayed: mean ir_size of final modules";
  report.metrics["interp.insts_per_us"] =
      counts.interp_s > 0.0 ? static_cast<double>(counts.instructions) / (counts.interp_s * 1e6)
                            : 0.0;
  report.provenance["interp.insts_per_us"] = "replayed";
  const double profiled = counts.interp_s + counts.hls_s;
  const double interp_share = profiled > 0.0 ? counts.interp_s / profiled : 0.0;
  report.metrics["interp.busy_s"] = profile_busy_s * interp_share;
  report.metrics["hls.busy_s"] = profile_busy_s * (1.0 - interp_share);
  report.provenance["interp.busy_s"] = "derived: runtime.profile_busy_s x replayed interp share";
  report.provenance["hls.busy_s"] = "derived: runtime.profile_busy_s x replayed hls share";
}

}  // namespace perfbench
