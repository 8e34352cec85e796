#include "serve/compile_service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <numeric>

#include "features/features.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "ml/distributions.hpp"
#include "passes/pass.hpp"
#include "rl/env.hpp"
#include "support/str.hpp"

namespace autophase::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t nanos_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Widest beam (scalar) or front (Pareto) any request decodes with, whatever
/// the wire carried: the candidate cut keeps at most this many children per
/// step.
constexpr int kMaxBeamWidth = 64;

constexpr std::size_t kNoBeam = static_cast<std::size_t>(-1);

/// One decode hypothesis: the materialised module plus the state the
/// observation builder needs. `measure` and `fingerprint` are known for the
/// root and, in a Pareto decode, for every beam.
struct Beam {
  std::unique_ptr<ir::Module> module;
  std::vector<int> sequence;
  std::vector<double> histogram;
  double score = 0.0;  // cumulative policy log-probability
  runtime::Measure measure{};
  std::uint64_t fingerprint = 0;
};

ml::Matrix row_matrix(const std::vector<double>& v) {
  ml::Matrix m(1, v.size());
  std::copy(v.begin(), v.end(), m.row(0));
  return m;
}

/// Undoes the env's reward shaping to express a predicted return in cycles.
double predicted_improvement(double value, bool log_reward) {
  if (!log_reward) return value;
  return value >= 0 ? std::expm1(value) : -std::expm1(-value);
}

ParetoPoint point_of(const Beam& beam) {
  return {beam.sequence, beam.measure.cycles, beam.measure.area, beam.measure.ir_size,
          beam.fingerprint};
}

/// The request's measurements through the shared service, with its own
/// cache hits and misses counted for the span attributes.
struct Meter {
  runtime::EvalService& eval;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  void measure(Beam& beam) {
    beam.fingerprint = ir::module_fingerprint(*beam.module);
    bool ran_simulator = false;  // eval's "was this call the one that measured"
    beam.measure = eval.measure(*beam.module, beam.fingerprint, &ran_simulator);
    ran_simulator ? ++misses : ++hits;
  }
};

/// What a selection policy makes of the finalists.
struct Selection {
  std::unique_ptr<ir::Module> module;  // fully materialised
  std::vector<int> sequence;
  runtime::Measure measure{};
  int beams_evaluated = 0;
  std::vector<ParetoPoint> front;
  double front_hypervolume = 0.0;
};

/// The parts of the decode that differ between scalar and Pareto serving.
/// The beam core (serve_compile) owns everything else: the root, the
/// batched observation and forward, top-k expansion, the candidate cut,
/// child materialisation, the value-net prediction and the response.
class SelectionPolicy {
 public:
  /// Whether the policy-greedy chain is exempt from the candidate cut.
  [[nodiscard]] virtual bool pins_greedy() const = 0;
  /// Called on every child once its pass has run.
  virtual void on_child(Beam& child) = 0;
  /// The step's children into the next live set. `greedy` indexes the
  /// pinned child on entry and its survivor on exit (kNoBeam: none).
  virtual std::vector<Beam> prune(std::vector<Beam> children, std::size_t& greedy,
                                  obs::ScopedSpan& step_span) = 0;
  /// The finalists — early terminations in order, then the last live set —
  /// into the answer. `root` is the unoptimised program's point.
  virtual Selection select(std::vector<Beam> finalists, const ParetoPoint& root,
                           obs::ScopedSpan& serve_span) = 0;

 protected:
  ~SelectionPolicy() = default;
};

/// Scalar serving: beams ride on cumulative log-probability alone. The
/// `width` most probable finalists are measured after the walk and the best
/// by the request's objective answers with its own module.
class ScalarSelection final : public SelectionPolicy {
 public:
  ScalarSelection(Objective objective, std::size_t width, Meter& meter)
      : objective_(objective), width_(width), meter_(meter) {}

  [[nodiscard]] bool pins_greedy() const override { return false; }
  void on_child(Beam&) override {}
  std::vector<Beam> prune(std::vector<Beam> children, std::size_t&, obs::ScopedSpan&) override {
    return children;
  }

  Selection select(std::vector<Beam> finalists, const ParetoPoint&,
                   obs::ScopedSpan& serve_span) override {
    // Early terminations can pile up finalists beyond the beam width.
    std::stable_sort(finalists.begin(), finalists.end(),
                     [](const Beam& a, const Beam& b) { return a.score > b.score; });
    if (finalists.size() > width_) finalists.resize(width_);

    AP_SPAN(measure_span, serve_span.context(), "measure");
    std::size_t best = 0;
    double best_score = 0.0;
    for (std::size_t i = 0; i < finalists.size(); ++i) {
      meter_.measure(finalists[i]);
      const runtime::Measure& m = finalists[i].measure;
      const double score = objective_ == Objective::kCyclesTimesArea
                               ? static_cast<double>(m.cycles) * m.area
                               : static_cast<double>(m.cycles);
      if (i == 0 || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    measure_span.attr("finalists", static_cast<std::uint64_t>(finalists.size()));
    measure_span.attr("cache_hits", meter_.hits);
    measure_span.attr("cache_misses", meter_.misses);

    // The winner can still be CoW-lazy (an empty winning sequence never ran
    // a pass); the response outlives the request it borrows from, so cut the
    // tie before the module escapes.
    Beam& winner = finalists[best];
    winner.module->materialize_all();
    return {std::move(winner.module), std::move(winner.sequence), winner.measure,
            static_cast<int>(finalists.size()), {}, 0.0};
  }

 private:
  Objective objective_;
  std::size_t width_;
  Meter& meter_;
};

/// Multi-objective serving (POSET-RL style): every child is measured, the
/// live set is dominance-pruned each step (duplicates collapse by
/// fingerprint, width-bounded by scalarised eviction) and the finalists
/// form the returned front. The policy-greedy chain is pinned — exempt from
/// the cut and from pruning. It is exactly the scalar greedy walk, so its
/// endpoint always reaches the finalists, which guarantees every front
/// scalarises at least as well as the scalar response to the same request
/// (the bench gate `front_dominates_scalar`); dominance alone can't promise
/// that, since a sibling may dominate the greedy child mid-decode and still
/// land on a worse endpoint. With width 1 and one active objective this
/// degenerates exactly to scalar greedy, which a test pins bit-for-bit.
class ParetoSelection final : public SelectionPolicy {
 public:
  ParetoSelection(const ObjectiveWeights& weights, std::size_t width, Meter& meter,
                  const ir::Module& program)
      : weights_(weights), width_(width), meter_(meter), program_(program) {}

  [[nodiscard]] bool pins_greedy() const override { return true; }
  void on_child(Beam& child) override { meter_.measure(child); }

  std::vector<Beam> prune(std::vector<Beam> children, std::size_t& greedy,
                          obs::ScopedSpan& step_span) override {
    std::vector<ParetoPoint> step_front;
    for (const Beam& child : children) front_insert(step_front, point_of(child), weights_, width_);
    // Surviving beams carry on in candidate order, one per surviving point.
    std::vector<Beam> next;
    std::size_t next_greedy = kNoBeam;
    for (std::size_t i = 0; i < children.size(); ++i) {
      const auto it = std::find_if(step_front.begin(), step_front.end(), [&](const ParetoPoint& p) {
        return p.fingerprint == children[i].fingerprint;
      });
      if (it == step_front.end() && i != greedy) continue;
      if (it != step_front.end()) step_front.erase(it);
      if (i == greedy) next_greedy = next.size();
      next.push_back(std::move(children[i]));
    }
    step_span.attr("pruned", static_cast<std::uint64_t>(children.size() - next.size()));
    greedy = next_greedy;
    return next;
  }

  Selection select(std::vector<Beam> finalists, const ParetoPoint& root,
                   obs::ScopedSpan& serve_span) override {
    std::vector<ParetoPoint> front;
    for (const Beam& beam : finalists) front_insert(front, point_of(beam), weights_, width_);
    sort_front(front, weights_);
    serve_span.attr("finalists", static_cast<std::uint64_t>(finalists.size()));
    serve_span.attr("front_size", static_cast<std::uint64_t>(front.size()));
    serve_span.attr("cache_hits", meter_.hits);
    serve_span.attr("cache_misses", meter_.misses);

    // front[0] is the representative (best scalarised) point; its module is
    // re-derived by replaying the sequence — passes are deterministic, so
    // this is the module that was measured, and the clone is fully
    // materialised. The unoptimised program is the hypervolume reference,
    // never a front member.
    const ParetoPoint& representative = front.front();
    Selection selection;
    selection.module = ir::clone_module_for_rollout(program_);
    passes::apply_pass_sequence(*selection.module, representative.sequence);
    selection.module->materialize_all();
    selection.sequence = representative.sequence;
    selection.measure = {representative.cycles, representative.area, representative.ir_size};
    selection.beams_evaluated = static_cast<int>(finalists.size());
    selection.front_hypervolume = hypervolume(front, root, weights_);
    selection.front = std::move(front);
    return selection;
  }

 private:
  const ObjectiveWeights& weights_;
  std::size_t width_;
  Meter& meter_;
  const ir::Module& program_;
};

}  // namespace

const char* objective_name(Objective objective) noexcept {
  switch (objective) {
    case Objective::kCycles: return "cycles";
    case Objective::kCyclesTimesArea: return "cycles_times_area";
    case Objective::kFixedBudget: return "fixed_budget";
  }
  return "unknown";
}

LatencyQuantiles latency_view(const obs::HistogramSnapshot& hist) {
  LatencyQuantiles q;
  q.p50_ms = hist.quantile(0.5);
  q.p95_ms = hist.quantile(0.95);
  q.mean_ms = hist.mean();
  q.max_ms = hist.max;
  return q;
}

Result<CompileResponse> serve_compile(const PolicyArtifact& artifact,
                                      const CompileRequest& request,
                                      runtime::EvalService& eval, PolicyBatcher* batcher) {
  if (request.module == nullptr) return Status::error("compile request has no module");
  if (artifact.action_groups != 1) {
    return Status::error("serving requires a single-action policy (action_groups == 1)");
  }

  // Action/feature tables exactly as the training env derived them.
  std::vector<int> actions;
  if (artifact.spec.action_subset.empty()) {
    for (int i = 0; i < passes::kNumPasses; ++i) actions.push_back(i);
  } else {
    actions = artifact.spec.action_subset;
  }
  const bool has_terminate = artifact.spec.include_terminate;
  const std::size_t arity = actions.size() + (has_terminate ? 1 : 0);
  if (arity != artifact.action_arity) {
    return Status::error(strf("artifact action table mismatch (spec arity %zu, net arity %zu)",
                              arity, artifact.action_arity));
  }
  // A checksum guards integrity, not shape consistency: a policy whose
  // output row is narrower than the action space would send the decoder
  // reading past the logits buffer.
  if (artifact.policy.config().output != arity) {
    return Status::error(strf("policy output width %zu does not match action arity %zu",
                              artifact.policy.config().output, arity));
  }
  std::vector<int> features;
  if (artifact.spec.feature_subset.empty()) {
    for (int i = 0; i < features::kNumFeatures; ++i) features.push_back(i);
  } else {
    features = artifact.spec.feature_subset;
  }
  const rl::EnvConfig obs_config = env_config_of(artifact.spec);

  if (request.objective == Objective::kFixedBudget && request.pass_budget > kMaxDecodeSteps) {
    return Status::error(strf("pass_budget %d exceeds the %d-step decode limit",
                              request.pass_budget, kMaxDecodeSteps));
  }
  const int budget = request.objective == Objective::kFixedBudget
                         ? std::max(1, request.pass_budget)
                         : std::max(1, artifact.spec.episode_length);

  if (!artifact.normalizer.identity() &&
      artifact.normalizer.mean.size() != artifact.policy.config().input) {
    return Status::error("artifact normalizer length does not match policy input");
  }

  // Any active weight opts into the Pareto policy (front_width replaces
  // beam_width); weightless requests never reach it, which keeps scalar
  // answers bit-identical to the pre-Pareto service.
  const bool pareto = request.weights.active();
  const std::size_t width = static_cast<std::size_t>(
      std::clamp(pareto ? request.front_width : request.beam_width, 1, kMaxBeamWidth));
  Meter meter{eval};
  ScalarSelection scalar(request.objective, width, meter);
  ParetoSelection multi(request.weights, width, meter, *request.module);
  SelectionPolicy& policy = pareto ? static_cast<SelectionPolicy&>(multi) : scalar;
  // Rows of different objective mixes never share a batcher matmul.
  const std::uint64_t group_key = pareto ? weights_key(request.weights) : 0;

  const auto t0 = Clock::now();
  AP_SPAN(serve_span, request.trace, "serve");
  serve_span.attr("model", artifact.name);
  serve_span.attr("version", static_cast<std::uint64_t>(artifact.version));
  serve_span.attr("objective", pareto ? "pareto" : objective_name(request.objective));
  serve_span.attr(pareto ? "front_width" : "beam_width", static_cast<std::uint64_t>(width));

  // CoW rollout clone of the request program: the root's observation and
  // fingerprint read through to the source; bodies deep-copy only once a
  // pass mutates a beam. (Beam *children* use plain arena-backed
  // clone_module — their parents die at the end of the step, so they may
  // not hold lazy references into them.)
  Beam root;
  root.module = ir::clone_module_for_rollout(*request.module);
  root.histogram.assign(arity, 0.0);
  std::vector<double> root_observation =
      rl::build_observation(*root.module, root.histogram, obs_config, features);
  artifact.normalizer.apply(root_observation);
  if (root_observation.size() != artifact.policy.config().input) {
    return Status::error(strf("observation size %zu does not match policy input %zu",
                              root_observation.size(), artifact.policy.config().input));
  }
  meter.measure(root);  // the baseline, and the hypervolume reference point
  const ParetoPoint baseline = point_of(root);

  std::vector<Beam> finalists;
  std::vector<Beam> live;
  live.push_back(std::move(root));
  std::size_t greedy = 0;  // index into `live` of the pinned beam
  bool greedy_alive = policy.pins_greedy();

  for (int step = 0; step < budget && !live.empty(); ++step) {
    AP_SPAN(step_span, serve_span.context(), "decode_step");
    step_span.attr("step", static_cast<std::uint64_t>(step));
    step_span.attr("beams", static_cast<std::uint64_t>(live.size()));
    // One stacked forward for the whole beam front; through the batcher the
    // rows additionally fold with other requests in flight.
    std::vector<std::vector<double>> observations;
    if (step == 0) {
      observations.push_back(root_observation);  // only the root beam exists
    } else {
      // Batched SoA feature extraction over the whole beam front; rows are
      // bit-identical to the per-beam builder (same extractor, same order).
      std::vector<const ir::Module*> modules;
      std::vector<std::vector<double>> histograms;
      modules.reserve(live.size());
      histograms.reserve(live.size());
      for (const Beam& beam : live) {
        modules.push_back(beam.module.get());
        histograms.push_back(beam.histogram);
      }
      observations = rl::build_observation_batch(modules, histograms, obs_config, features);
      for (std::vector<double>& obs : observations) artifact.normalizer.apply(obs);
    }
    std::vector<std::vector<double>> logits;
    if (batcher != nullptr) {
      std::size_t batch_rows = 0;
      logits = batcher->infer_many(artifact, observations, &batch_rows, group_key,
                                   request.deadline_at);
      step_span.attr("batch_rows", static_cast<std::uint64_t>(batch_rows));
    } else {
      const ml::Matrix out = artifact.policy.forward_batch(observations);
      for (std::size_t r = 0; r < out.rows(); ++r) {
        logits.emplace_back(out.row(r), out.row(r) + out.cols());
      }
      step_span.attr("batch_rows", static_cast<std::uint64_t>(observations.size()));
    }

    // Expand: per beam, its top-k actions; overall, the top-k candidates.
    // Every tiebreak is on (parent index, action index), so the expansion
    // order — and therefore the served sequence — is deterministic.
    struct Candidate {
      std::size_t parent;
      std::size_t action;
      double score;
    };
    std::vector<Candidate> candidates;
    std::size_t greedy_action = 0;
    for (std::size_t b = 0; b < live.size(); ++b) {
      std::vector<std::size_t> order(arity);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        if (logits[b][x] != logits[b][y]) return logits[b][x] > logits[b][y];
        return x < y;
      });
      if (greedy_alive && b == greedy) greedy_action = order[0];
      for (std::size_t k = 0; k < std::min(width, arity); ++k) {
        const std::size_t a = order[k];
        candidates.push_back({b, a, live[b].score + ml::log_prob(logits[b].data(), arity, a)});
      }
    }
    std::sort(candidates.begin(), candidates.end(), [](const Candidate& x, const Candidate& y) {
      if (x.score != y.score) return x.score > y.score;
      if (x.parent != y.parent) return x.parent < y.parent;
      return x.action < y.action;
    });
    if (candidates.size() > width) candidates.resize(width);
    if (greedy_alive) {
      // Cumulative log-prob can rank the greedy child below the cut (greedy
      // is only locally optimal); swap it in over the weakest survivor.
      const bool present =
          std::any_of(candidates.begin(), candidates.end(), [&](const Candidate& c) {
            return c.parent == greedy && c.action == greedy_action;
          });
      if (!present) {
        const double score =
            live[greedy].score + ml::log_prob(logits[greedy].data(), arity, greedy_action);
        candidates.back() = {greedy, greedy_action, score};
      }
    }

    // Materialise survivors. The last candidate to use a parent steals its
    // module instead of cloning — greedy decoding never clones after step 0.
    // Terminate freezes the parent as a finalist.
    std::vector<int> uses(live.size(), 0);
    for (const Candidate& c : candidates) ++uses[c.parent];
    std::vector<Beam> children;
    std::size_t greedy_child = kNoBeam;  // index into `children` of the pinned child
    for (const Candidate& c : candidates) {
      const Beam& parent = live[c.parent];
      const bool pinned = greedy_alive && c.parent == greedy && c.action == greedy_action;
      Beam child;
      child.sequence = parent.sequence;
      child.histogram = parent.histogram;
      child.score = c.score;
      child.measure = parent.measure;
      child.fingerprint = parent.fingerprint;
      child.module = --uses[c.parent] == 0 ? std::move(live[c.parent].module)
                                           : ir::clone_module(*parent.module);
      if (has_terminate && c.action + 1 == arity) {
        finalists.push_back(std::move(child));
        if (pinned) greedy_alive = false;  // the chain's endpoint is now a finalist
        continue;
      }
      const int pass_index = actions[c.action];
      passes::apply_pass(*child.module, pass_index);
      child.histogram[c.action] += 1.0;
      child.sequence.push_back(pass_index);
      policy.on_child(child);
      if (pinned) greedy_child = children.size();
      children.push_back(std::move(child));
    }
    live = policy.prune(std::move(children), greedy_child, step_span);
    greedy = greedy_child;
    greedy_alive = greedy_alive && greedy != kNoBeam;
  }
  for (Beam& beam : live) finalists.push_back(std::move(beam));

  Selection selection = policy.select(std::move(finalists), baseline, serve_span);

  std::uint64_t predicted = baseline.cycles;
  if (artifact.value.has_value()) {
    const double value = artifact.value->forward(row_matrix(root_observation)).at(0, 0);
    const double improvement = predicted_improvement(value, artifact.spec.log_reward);
    const double estimate = std::max(0.0, static_cast<double>(baseline.cycles) - improvement);
    predicted = static_cast<std::uint64_t>(estimate);
  }

  CompileResponse response;
  response.module = std::move(selection.module);
  response.provenance = {artifact.name,
                         artifact.version,
                         std::move(selection.sequence),
                         baseline.cycles,
                         predicted,
                         selection.measure.cycles,
                         selection.measure.area,
                         selection.beams_evaluated};
  response.front = std::move(selection.front);
  response.front_hypervolume = selection.front_hypervolume;
  response.serve_nanos = nanos_between(t0, Clock::now());
  return response;
}

WarmupReport warm_up(const PolicyArtifact& artifact, runtime::EvalService& eval) {
  WarmupReport report;
  // Pre-fault the weight pages: one dummy row through every layer touches
  // every matrix exactly the way the first real forward would.
  const std::vector<std::vector<double>> dummy(
      1, std::vector<double>(artifact.policy.config().input, 0.0));
  (void)artifact.policy.forward_batch(dummy);
  if (artifact.value.has_value()) (void)artifact.value->forward_batch(dummy);
  report.forwards_run = true;

  report.baselines = artifact.baselines.size();
  // Stamped baselines are only valid on a node whose eval config matches the
  // service that measured them; 0 = unstamped (hand-built), trusted as-is.
  if (artifact.baselines_config != 0 &&
      artifact.baselines_config != eval.config_fingerprint()) {
    report.config_mismatch = true;
    return report;
  }
  for (const CorpusBaseline& b : artifact.baselines) {
    if (eval.prime(b.fingerprint, {b.cycles, b.area})) ++report.primed;
  }
  return report;
}

bool is_overloaded(const Status& status) noexcept {
  return !status.is_ok() && status.message().rfind("overloaded: ", 0) == 0;
}

// ---------------------------------------------------------------------------
// CompileService
// ---------------------------------------------------------------------------

CompileService::CompileService(std::shared_ptr<ModelRegistry> registry,
                               std::shared_ptr<runtime::EvalService> eval,
                               CompileServiceConfig config)
    : registry_(std::move(registry)),
      eval_(std::move(eval)),
      config_(config),
      batcher_(config.batcher),
      started_(Clock::now()),
      metrics_registry_(std::make_shared<obs::MetricsRegistry>()),
      ctr_completed_(metrics_registry_->counter("serve_requests_completed")),
      ctr_failed_(metrics_registry_->counter("serve_requests_failed")),
      ctr_rejected_(metrics_registry_->counter("serve_requests_rejected")),
      ctr_cancelled_(metrics_registry_->counter("serve_requests_cancelled")),
      ctr_shed_overload_(metrics_registry_->counter("serve_shed_overload")),
      ctr_shed_deadline_(metrics_registry_->counter("serve_shed_deadline")),
      gauge_queue_depth_(metrics_registry_->gauge("serve_queue_depth")),
      gauge_max_queue_depth_(metrics_registry_->gauge("serve_queue_depth_max")),
      hist_latency_ms_(metrics_registry_->histogram("serve_latency_ms")),
      pool_(std::max<std::size_t>(1, config.workers)) {
  if (eval_ == nullptr) eval_ = std::make_shared<runtime::EvalService>();
  // Scrape-time views over state owned elsewhere: the eval service's sharded
  // exactly-once counters and the model registry keep their own bookkeeping;
  // the registry polls them instead of double counting. Captured shared_ptrs
  // keep the viewed objects alive as long as the registry's scrape surface.
  const std::shared_ptr<runtime::EvalService> eval_view = eval_;
  metrics_registry_->gauge_fn("eval_cache_hits", {}, [eval_view] {
    return static_cast<double>(eval_view->stats().hits);
  });
  metrics_registry_->gauge_fn("eval_cache_misses", {}, [eval_view] {
    return static_cast<double>(eval_view->stats().misses);
  });
  metrics_registry_->gauge_fn("eval_sequence_hits", {}, [eval_view] {
    return static_cast<double>(eval_view->stats().sequence_hits);
  });
  metrics_registry_->gauge_fn("eval_cache_primed", {}, [eval_view] {
    return static_cast<double>(eval_view->stats().primed);
  });
  const std::shared_ptr<ModelRegistry> registry_view = registry_;
  if (registry_view != nullptr) {
    metrics_registry_->gauge_fn("registry_artifacts", {}, [registry_view] {
      return static_cast<double>(registry_view->size());
    });
  }
  // Batcher views capture `this`: the batcher is a member, so these gauges
  // are valid exactly while the service (and thus its registry handle here)
  // lives — the supported scrape pattern (ServeNode renders while serving).
  metrics_registry_->gauge_fn("batcher_batches", {}, [this] {
    return static_cast<double>(batcher_.stats().batches);
  });
  metrics_registry_->gauge_fn("batcher_rows", {}, [this] {
    return static_cast<double>(batcher_.stats().rows);
  });
  metrics_registry_->gauge_fn("batcher_max_batch_rows", {}, [this] {
    return static_cast<double>(batcher_.stats().max_batch_rows);
  });
  metrics_registry_->gauge_fn("batcher_window_clamps", {}, [this] {
    return static_cast<double>(batcher_.stats().window_clamps);
  });
  for (std::size_t i = 0; i < config_.workers; ++i) {
    pool_.submit([this] { worker_loop(); });
  }
}

CompileService::~CompileService() { shutdown(); }

void CompileService::shutdown() {
  std::vector<Job> cancelled;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      stopping_ = true;
      // With zero workers nothing can drain, so a "draining" shutdown would
      // strand queued promises; cancel explicitly instead.
      if (!config_.drain_on_shutdown || config_.workers == 0) {
        cancelled = std::move(queue_);
        queue_.clear();
      }
    }
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  for (Job& job : cancelled) {
    job.promise.set_value(Status::error("cancelled: compile service shut down"));
  }
  if (!cancelled.empty()) ctr_cancelled_.inc(cancelled.size());
  // Workers wake, drain whatever remains, and exit; only then does the pool
  // join — queued work never races member teardown.
  pool_.shutdown(ThreadPool::ShutdownMode::kDrain);
}

void CompileService::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and nothing left to drain
      std::pop_heap(queue_.begin(), queue_.end(), JobOrder{});
      job = std::move(queue_.back());
      queue_.pop_back();
      gauge_queue_depth_.set(static_cast<double>(queue_.size()));
    }
    space_cv_.notify_one();
    if (job.request.deadline_at != std::chrono::steady_clock::time_point{} &&
        Clock::now() >= job.request.deadline_at) {
      // The deadline passed while the job queued: nobody is waiting for this
      // answer any more, so shed it instead of burning a worker on it.
      // Counters first: a caller woken by the future must already see the
      // shed reflected in metrics().
      ctr_shed_deadline_.inc();
      ctr_failed_.inc();
      job.promise.set_value(
          Status::error("overloaded: deadline expired while queued; retry with more headroom"));
      continue;
    }
    finish_job(std::move(job));
  }
}

void CompileService::finish_job(Job job) {
  const auto start = Clock::now();
  const std::uint64_t wait_ns = nanos_between(job.enqueued, start);
  obs::Tracer& tracer = obs::tracer();
  const obs::TraceContext root_ctx = job.request.trace;  // as submitted (or from the wire)
  obs::TraceContext req_ctx{};
  std::uint64_t enqueue_trace_ns = 0;
  if (tracer.enabled() && root_ctx.valid()) {
    // Mint the request span id up front so the queue span (below) and the
    // serve-path spans both parent under it; the request span itself is
    // recorded once the job resolves. Its start is backdated to enqueue time
    // via the measured queue wait (Clock and the trace clock are the same
    // steady clock).
    req_ctx = tracer.child_of(root_ctx);
    enqueue_trace_ns = obs::trace_now_ns() - wait_ns;
    obs::SpanRecord queue_span;
    queue_span.trace = req_ctx.trace;
    queue_span.span = tracer.next_span_id();
    queue_span.parent = req_ctx.span;
    queue_span.name = "queue";
    queue_span.start_ns = enqueue_trace_ns;
    queue_span.duration_ns = wait_ns;
    queue_span.thread = obs::current_thread_ordinal();
    queue_span.attrs.emplace_back("queue_depth",
                                  strf("%zu", job.depth_at_entry));
    queue_span.attrs.emplace_back("priority", strf("%d", job.request.priority));
    tracer.record(std::move(queue_span));
    job.request.trace = req_ctx;  // serve-path spans become children of "request"
  }
  Result<CompileResponse> result = run_request(job.request, &batcher_);
  const bool ok = result.is_ok();
  if (ok) result.value().queue_nanos = wait_ns;
  const double total_ms =
      static_cast<double>(nanos_between(job.enqueued, Clock::now())) / 1e6;
  // Success attributes to the (model, version) that served it — under a
  // shadow split that is the canary, so per-model counters separate canary
  // traffic from incumbent traffic without extra bookkeeping. Failure
  // attributes to what was requested (see ModelVersionStats). Metrics are
  // recorded *before* the promise resolves, so a caller that just observed
  // its future can already see the request in metrics().
  const std::string& model = ok ? result.value().provenance.model : job.request.model;
  const std::uint32_t version =
      ok ? result.value().provenance.version
         : static_cast<std::uint32_t>(std::max<std::int64_t>(0, job.request.version));
  metrics_registry_
      ->counter("serve_model_requests", {{"model", model},
                                         {"version", strf("%u", version)},
                                         {"outcome", ok ? "completed" : "failed"}})
      .inc();
  if (ok) {
    ctr_completed_.inc();
    metrics_registry_
        ->counter("serve_objective_completed",
                  {{"objective", objective_name(job.request.objective)}})
        .inc();
    // Predicted-vs-measured cycle error, the serving-side view of value-net
    // calibration, bucketed per (model, version) so a regressing upgrade is
    // visible next to the version that caused it.
    const Provenance& prov = result.value().provenance;
    if (prov.measured_cycles > 0) {
      const double error_pct = 100.0 *
                               std::abs(static_cast<double>(prov.predicted_cycles) -
                                        static_cast<double>(prov.measured_cycles)) /
                               static_cast<double>(prov.measured_cycles);
      metrics_registry_
          ->histogram("serve_cycle_error_pct",
                      {{"model", prov.model}, {"version", strf("%u", prov.version)}})
          .record(error_pct);
    }
    // Pareto requests: front size + hypervolume distributions (the obs view
    // of multi-objective serving quality; scalar requests record nothing).
    if (!result.value().front.empty()) {
      metrics_registry_->counter("serve_pareto_requests").inc();
      metrics_registry_->histogram("serve_front_size")
          .record(static_cast<double>(result.value().front.size()));
      metrics_registry_->histogram("serve_front_hypervolume")
          .record(result.value().front_hypervolume);
    }
  } else {
    ctr_failed_.inc();
  }
  hist_latency_ms_.record(total_ms);
  if (ok) {
    // Copy under the lock, invoke outside it: the hook appends to a
    // provenance log (its own lock) and must not serialize against
    // split-control calls.
    ProvenanceHook hook;
    {
      const std::lock_guard<std::mutex> lock(control_mutex_);
      hook = provenance_hook_;
    }
    if (hook) hook(job.request, result.value());
  }
  if (req_ctx.valid()) {
    obs::SpanRecord req_span;
    req_span.trace = req_ctx.trace;
    req_span.span = req_ctx.span;
    req_span.parent = root_ctx.span;  // 0 locally; the client's span over the wire
    req_span.name = "request";
    req_span.start_ns = enqueue_trace_ns;
    req_span.duration_ns = obs::trace_now_ns() - enqueue_trace_ns;
    req_span.thread = obs::current_thread_ordinal();
    req_span.attrs.emplace_back("model", job.request.model);
    req_span.attrs.emplace_back("ok", ok ? "true" : "false");
    tracer.record(std::move(req_span));
  }
  job.promise.set_value(std::move(result));
}

bool shadow_selected(std::uint64_t fingerprint, double fraction) noexcept {
  if (!(fraction > 0.0)) return false;  // also rejects NaN
  if (fraction >= 1.0) return true;
  // splitmix64 finalizer: the raw fingerprint is already a hash, but mixing
  // again decorrelates the threshold comparison from any structure fnv1a
  // leaves in the low bits.
  std::uint64_t x = fingerprint + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x < static_cast<std::uint64_t>(fraction * 18446744073709551616.0 /* 2^64 */);
}

void CompileService::set_traffic_split(const std::string& model, TrafficSplit split) {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  splits_[model] = std::move(split);
}

void CompileService::clear_traffic_split(const std::string& model) {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  splits_.erase(model);
}

std::optional<TrafficSplit> CompileService::traffic_split(const std::string& model) const {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  const auto it = splits_.find(model);
  if (it == splits_.end()) return std::nullopt;
  return it->second;
}

void CompileService::set_provenance_hook(ProvenanceHook hook) {
  const std::lock_guard<std::mutex> lock(control_mutex_);
  provenance_hook_ = std::move(hook);
}

Result<CompileResponse> CompileService::run_request(const CompileRequest& request,
                                                    PolicyBatcher* batcher) {
  std::shared_ptr<const PolicyArtifact> artifact = registry_->get(request.model, request.version);
  if (artifact == nullptr) {
    return Status::error(strf("unknown model '%s' (version %lld)", request.model.c_str(),
                              static_cast<long long>(request.version)));
  }
  bool canary = false;
  if (request.version <= 0 && request.module != nullptr) {
    const std::optional<TrafficSplit> split = traffic_split(request.model);
    if (split.has_value() &&
        shadow_selected(ir::module_fingerprint(*request.module), split->fraction)) {
      // A split whose canary has not gossiped in yet falls back to the
      // incumbent: shadow serving must never fail traffic it shadows.
      if (auto shadow =
              registry_->get(split->canary_model, static_cast<std::int64_t>(split->canary_version));
          shadow != nullptr) {
        artifact = std::move(shadow);
        canary = true;
      }
    }
  }
  Result<CompileResponse> response = serve_compile(*artifact, request, *eval_, batcher);
  if (response.is_ok()) response.value().provenance.canary = canary;
  return response;
}

Result<CompileResponse> CompileService::compile_sync(const CompileRequest& request) {
  if (request.deadline_ms > 0 &&
      request.deadline_at == std::chrono::steady_clock::time_point{}) {
    CompileRequest stamped = request;
    stamped.deadline_at = Clock::now() + std::chrono::milliseconds(request.deadline_ms);
    return run_request(stamped, nullptr);
  }
  return run_request(request, nullptr);
}

Result<WarmupReport> CompileService::warm_up_model(const std::string& name,
                                                   std::int64_t version) {
  const std::shared_ptr<const PolicyArtifact> artifact = registry_->get(name, version);
  if (artifact == nullptr) {
    return Status::error(strf("warm-up: unknown model '%s' (version %lld)", name.c_str(),
                              static_cast<long long>(version)));
  }
  return warm_up(*artifact, *eval_);
}

CompileService::ResponseFuture CompileService::rejected_future() {
  ctr_rejected_.inc();
  std::promise<Result<CompileResponse>> promise;
  promise.set_value(Status::error("rejected: compile service is shut down"));
  return promise.get_future();
}

CompileService::ResponseFuture CompileService::enqueue_locked(
    CompileRequest request, std::unique_lock<std::mutex>& lock) {
  Job job;
  job.request = std::move(request);
  if (job.request.deadline_ms > 0 &&
      job.request.deadline_at == std::chrono::steady_clock::time_point{}) {
    // Admission stamps the relative wire deadline into an absolute one; a
    // deadline_at already set (a local caller that stamped its own) is kept.
    job.request.deadline_at =
        Clock::now() + std::chrono::milliseconds(job.request.deadline_ms);
  }
  job.sequence = next_sequence_++;
  job.enqueued = Clock::now();
  job.depth_at_entry = queue_.size();  // jobs ahead of this one (span attr)
  ResponseFuture future = job.promise.get_future();
  queue_.push_back(std::move(job));
  std::push_heap(queue_.begin(), queue_.end(), JobOrder{});
  const std::size_t depth = queue_.size();
  lock.unlock();
  queue_cv_.notify_one();
  gauge_queue_depth_.set(static_cast<double>(depth));
  gauge_max_queue_depth_.update_max(static_cast<double>(depth));
  return future;
}

CompileService::ResponseFuture CompileService::shed_locked(
    CompileRequest request, std::unique_lock<std::mutex>& lock) {
  // Victim selection: the cheapest-to-retry queued job — lowest priority,
  // youngest within it. It has waited least, so retrying it elsewhere wastes
  // the least already-spent queue time; a retry of the oldest job would also
  // be the most likely to shed again.
  std::size_t victim = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (victim == queue_.size() ||
        queue_[i].request.priority < queue_[victim].request.priority ||
        (queue_[i].request.priority == queue_[victim].request.priority &&
         queue_[i].sequence > queue_[victim].sequence)) {
      victim = i;
    }
  }
  if (victim < queue_.size() && request.priority > queue_[victim].request.priority) {
    Job shed = std::move(queue_[victim]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
    std::make_heap(queue_.begin(), queue_.end(), JobOrder{});
    ResponseFuture future = enqueue_locked(std::move(request), lock);  // releases lock
    ctr_shed_overload_.inc();
    ctr_failed_.inc();
    shed.promise.set_value(Status::error(
        "overloaded: shed from a saturated queue by a higher-priority request; retry"));
    return future;
  }
  lock.unlock();
  ctr_shed_overload_.inc();
  ctr_rejected_.inc();
  std::promise<Result<CompileResponse>> bounced;
  bounced.set_value(Status::error(
      strf("overloaded: queue at capacity %zu; retry on another node",
           config_.queue_capacity)));
  return bounced.get_future();
}

CompileService::ResponseFuture CompileService::submit(CompileRequest request) {
  // Requests get their trace identity at the door (a no-op invalid context
  // when tracing is off); a context already present — a remote client's,
  // arrived over the wire — is kept so the trace stitches across nodes.
  if (!request.trace.valid()) request.trace = obs::tracer().begin_trace();
  std::unique_lock<std::mutex> lock(mutex_);
  if (config_.shed_on_saturation && !stopping_ &&
      queue_.size() >= config_.queue_capacity) {
    return shed_locked(std::move(request), lock);
  }
  // Backpressure: a full queue blocks the submitter instead of growing.
  space_cv_.wait(lock,
                 [this] { return stopping_ || queue_.size() < config_.queue_capacity; });
  if (stopping_) {
    lock.unlock();
    return rejected_future();
  }
  return enqueue_locked(std::move(request), lock);
}

std::optional<CompileService::ResponseFuture> CompileService::try_submit(
    CompileRequest request) {
  if (!request.trace.valid()) request.trace = obs::tracer().begin_trace();
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_ || queue_.size() >= config_.queue_capacity) {
    lock.unlock();
    ctr_rejected_.inc();
    return std::nullopt;
  }
  return enqueue_locked(std::move(request), lock);
}

std::size_t CompileService::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

ServeMetrics CompileService::metrics() const {
  ServeMetrics m;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    m.queue_depth = queue_.size();
  }
  m.completed = ctr_completed_.value();
  m.failed = ctr_failed_.value();
  m.rejected = ctr_rejected_.value();
  m.cancelled = ctr_cancelled_.value();
  m.shed_overload = ctr_shed_overload_.value();
  m.shed_deadline = ctr_shed_deadline_.value();
  m.max_queue_depth = static_cast<std::size_t>(gauge_max_queue_depth_.value());
  m.latency_hist = hist_latency_ms_.snapshot();
  m.latency = latency_view(m.latency_hist);
  m.wall_seconds = static_cast<double>(nanos_between(started_, Clock::now())) / 1e9;
  m.throughput_rps =
      m.wall_seconds > 0 ? static_cast<double>(m.completed) / m.wall_seconds : 0.0;
  // The per-model breakdown is the labelled counter family read back; the
  // registry orders keys deterministically, and completed/failed rows of the
  // same (model, version) fold into one entry.
  std::map<std::pair<std::string, std::uint32_t>, ModelVersionStats> per_model;
  for (const auto& [key, value] : metrics_registry_->counters("serve_model_requests")) {
    std::string model;
    std::uint32_t version = 0;
    bool completed = false;
    for (const auto& [label, label_value] : key.labels) {
      if (label == "model") model = label_value;
      if (label == "version") {
        version = static_cast<std::uint32_t>(std::strtoul(label_value.c_str(), nullptr, 10));
      }
      if (label == "outcome") completed = label_value == "completed";
    }
    ModelVersionStats& row = per_model[{model, version}];
    row.model = model;
    row.version = version;
    (completed ? row.completed : row.failed) += value;
  }
  m.per_model.reserve(per_model.size());
  for (auto& [key, row] : per_model) m.per_model.push_back(std::move(row));
  for (const auto& [key, value] :
       metrics_registry_->counters("serve_objective_completed")) {
    for (std::size_t i = 0; i < kNumObjectives; ++i) {
      if (!key.labels.empty() &&
          key.labels.front().second == objective_name(static_cast<Objective>(i))) {
        m.objective_completed[i] = value;
      }
    }
  }
  m.batcher = batcher_.stats();
  return m;
}

}  // namespace autophase::serve
