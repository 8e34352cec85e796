// Phase-ordering-as-a-service: accepts compile requests (a module + an
// objective), decodes a pass sequence from a registered policy (greedy or
// top-k beam over policy log-probability), measures the result through the
// shared runtime::EvalService, and returns the optimized module with a
// provenance record. Requests flow through a bounded priority queue into a
// worker pool whose policy forwards are folded across requests by a
// PolicyBatcher; overflow produces backpressure instead of unbounded memory.
// Decoding is deterministic — no RNG anywhere on the serve path — so the
// concurrent worker path returns bit-identical pass sequences to
// compile_sync() on one thread.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ir/module.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/eval_service.hpp"
#include "serve/batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/pareto.hpp"
#include "support/status.hpp"
#include "support/thread_pool.hpp"

namespace autophase::serve {

enum class Objective : std::uint8_t {
  kCycles,           // minimise measured cycles
  kCyclesTimesArea,  // minimise the cycles x area latency-area product
  kFixedBudget,      // best cycles using at most `pass_budget` passes
};

/// Contiguous objective count (per-objective metric slots, wire payloads).
inline constexpr std::size_t kNumObjectives = 3;

/// Stable lower-snake name, used as the metric label value for per-objective
/// counters (and therefore part of the scrape surface — do not rename).
const char* objective_name(Objective objective) noexcept;

struct CompileRequest {
  const ir::Module* module = nullptr;
  Objective objective = Objective::kCycles;
  /// Sequence-length cap for kFixedBudget; the other objectives decode for
  /// the model's trained episode length. Above kMaxDecodeSteps the request
  /// fails with an error status before any decoding; below 1 it serves as 1.
  int pass_budget = 8;
  /// 1 = greedy decode; >1 = beam of this width scored by cumulative policy
  /// log-probability, finalists ranked by the measured objective. The decode
  /// clamps it to [1, 64].
  int beam_width = 1;
  std::string model;
  std::int64_t version = 0;  // <= 0 selects the latest
  int priority = 0;          // higher pops first; FIFO within a priority
  /// Multi-objective opt-in: any weight > 0 switches the decode to the
  /// Pareto path (nondominated live set, front in the response). All-zero —
  /// the default — runs the classic scalar decode and produces bit-identical
  /// responses to the pre-Pareto service.
  ObjectiveWeights weights{};
  /// Bound on the nondominated set: live beams per step and points in the
  /// returned front. Only read when `weights` is active; the wire accepts
  /// 1..4096 and the decode clamps it to [1, 64].
  int front_width = 8;
  /// Request deadline in milliseconds from admission; 0 = none. Travels on
  /// the wire as kCompileTagDeadline (relative, so clock skew between client
  /// and server never matters); the admitting service stamps `deadline_at`
  /// from it. A queued job whose deadline passes is shed with an
  /// "overloaded: " status instead of burning a worker, and the batcher never
  /// holds its fold window open past a pending deadline.
  std::uint64_t deadline_ms = 0;
  /// Local bookkeeping: the absolute deadline, stamped at admission
  /// (submit/try_submit/compile_sync) from `deadline_ms`. Never serialized.
  /// {} = no deadline.
  std::chrono::steady_clock::time_point deadline_at{};
  /// Tracing identity. Invalid (all-zero, the default) means untraced;
  /// submit/try_submit allocate a fresh root context when the process tracer
  /// is enabled, and a remote client's context arrives here over the wire so
  /// the owning node's spans stitch into the client's trace.
  obs::TraceContext trace{};
};

struct Provenance {
  std::string model;
  std::uint32_t version = 0;
  std::vector<int> sequence;          // Table-1 indices actually applied
  std::uint64_t baseline_cycles = 0;  // unoptimised module
  std::uint64_t predicted_cycles = 0; // value-net estimate, before measuring
  std::uint64_t measured_cycles = 0;  // EvalService-measured result
  double measured_area = 0.0;
  int beams_evaluated = 1;            // finalists measured for the objective
  /// Served by the shadow-canary slice of a traffic split rather than the
  /// model the request named. model/version above identify the canary, so
  /// per-(model,version) outcome counters attribute shadow traffic without
  /// any extra bookkeeping.
  bool canary = false;
};

struct CompileResponse {
  std::unique_ptr<ir::Module> module;  // optimized clone of the request module
  Provenance provenance;
  std::uint64_t queue_nanos = 0;  // time spent waiting for a worker
  std::uint64_t serve_nanos = 0;  // decode + measurement time
  /// Pareto requests only (empty otherwise): the nondominated finalist set
  /// in canonical sort_front order — front[0] is the representative point
  /// the provenance/module describe. Verified nondominated by construction.
  std::vector<ParetoPoint> front;
  /// hypervolume(front) against the unoptimised baseline as the reference.
  double front_hypervolume = 0.0;
};

struct LatencyQuantiles {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

/// The LatencyQuantiles view of a histogram snapshot — the one quantile
/// convention shared by per-node metrics and the fleet merge, so the two
/// views can never silently diverge.
LatencyQuantiles latency_view(const obs::HistogramSnapshot& hist);

/// Per-(model, version) request outcomes. Successful requests count under
/// the version that actually served them (provenance), so "latest" requests
/// attribute correctly across model upgrades; failures count under the
/// version the request asked for (0 = latest) — the served version of a
/// failed request is unknowable.
struct ModelVersionStats {
  std::string model;
  std::uint32_t version = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

struct ServeMetrics {
  std::size_t completed = 0;
  std::size_t failed = 0;     // resolved with an error status
  std::size_t rejected = 0;   // bounced by backpressure / shutdown
  std::size_t cancelled = 0;  // queued work dropped by a cancelling shutdown
  /// Overload-control sheds: queue-saturation evictions/bounces and
  /// deadline-expired-while-queued drops (each also counts under
  /// failed/rejected as appropriate — these split out the *why*).
  std::size_t shed_overload = 0;
  std::size_t shed_deadline = 0;
  std::size_t queue_depth = 0;
  std::size_t max_queue_depth = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  // completed / wall_seconds
  /// submit -> response quantiles, a latency_view() over `latency_hist`.
  LatencyQuantiles latency;
  /// The full submit -> response latency histogram (every request ever, no
  /// truncation). This is what crosses the wire for fleet aggregation:
  /// percentiles merge by summing buckets, never by averaging per-node
  /// quantiles.
  obs::HistogramSnapshot latency_hist;
  /// Sorted by (model, version); see ModelVersionStats for attribution.
  std::vector<ModelVersionStats> per_model;
  /// Completed requests by Objective (POSET-RL-style multi-objective ops).
  std::array<std::uint64_t, kNumObjectives> objective_completed{};
  BatcherStats batcher;
};

struct CompileServiceConfig {
  /// Worker threads. 0 is a valid inline-only configuration: nothing drains
  /// the queue (compile_sync still works), which tests use to pin down
  /// backpressure and cancellation deterministically.
  std::size_t workers = 4;
  std::size_t queue_capacity = 64;
  BatcherConfig batcher{};
  /// On shutdown/destruction: finish queued requests (true) or cancel them
  /// with an error response (false).
  bool drain_on_shutdown = true;
  /// Overload control: when the queue is saturated, shed instead of blocking
  /// the submitter. The victim is the cheapest-to-retry queued job (lowest
  /// priority, youngest within it) when the incoming request outranks it;
  /// otherwise the incoming request itself bounces. Either way the loser's
  /// future resolves immediately with an "overloaded: " status
  /// (is_overloaded()) — no hang, no stranded promise. Off by default so
  /// embedded users keep classic blocking backpressure; ServeNode enables it
  /// and turns the status into a typed kOverloaded wire reply.
  bool shed_on_saturation = false;
};

/// Shadow-canary traffic split for one served model name: route `fraction`
/// of its latest-version traffic to (canary_model, canary_version) instead.
/// Selection is a pure function of the request module's fingerprint (see
/// shadow_selected), so the same program always lands on the same side —
/// deterministic, replayable, and identical on every node of the fleet.
struct TrafficSplit {
  std::string canary_model;
  std::uint32_t canary_version = 0;  // 0 = canary model's latest
  double fraction = 0.0;             // [0, 1] share of traffic shadowed
};

/// The traffic-split selector: splitmix64-mixes the module fingerprint and
/// compares against `fraction` of the 64-bit space. Exposed so tests and
/// operators can compute the exact canary set for a workload instead of
/// asserting statistically.
[[nodiscard]] bool shadow_selected(std::uint64_t fingerprint, double fraction) noexcept;

/// True when `status` is a load-shed rejection ("overloaded: " message
/// prefix): nothing is wrong with the request itself — back off and retry,
/// ideally on another node. RemoteCompileClient uses this to apply endpoint
/// backoff without poisoning the pooled connection, and ServeNode maps it to
/// the typed kOverloaded wire reply.
[[nodiscard]] bool is_overloaded(const Status& status) noexcept;

/// Decodes and measures one request against a resolved artifact — the shared
/// core of the worker path and compile_sync. One beam decode serves scalar
/// and Pareto requests alike; the request's weights pick its selection
/// policy. `batcher` is optional; without one, policy forwards run inline
/// (still via forward_batch for beam fronts).
Result<CompileResponse> serve_compile(const PolicyArtifact& artifact,
                                      const CompileRequest& request,
                                      runtime::EvalService& eval, PolicyBatcher* batcher);

/// What warm_up() did for one freshly installed artifact.
struct WarmupReport {
  std::size_t baselines = 0;  // warm-up entries the artifact carried
  std::size_t primed = 0;     // entries newly inserted into the eval cache
  bool forwards_run = false;  // dummy policy/value forwards executed
  /// Baselines were stamped with a different eval-config fingerprint than
  /// this node's, so priming was skipped: the trainer's cycle counts would
  /// be wrong under this node's constraints.
  bool config_mismatch = false;
};

/// Serving-time model warm-up, run when an artifact lands in a node's
/// registry (publish, replication, or catch-up): pre-faults the policy and
/// value weights with a dummy forward_batch — the first real request never
/// pays first-touch page faults or lazily-grown allocator pools — and primes
/// `eval`'s cycle cache from the artifact's training-corpus baseline section
/// (v1 artifacts carry none; they skip priming and report baselines == 0).
WarmupReport warm_up(const PolicyArtifact& artifact, runtime::EvalService& eval);

class CompileService {
 public:
  using ResponseFuture = std::future<Result<CompileResponse>>;

  CompileService(std::shared_ptr<ModelRegistry> registry,
                 std::shared_ptr<runtime::EvalService> eval, CompileServiceConfig config = {});
  ~CompileService();

  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;

  /// Bounded enqueue. Blocks while the queue is full (backpressure); after
  /// shutdown the future resolves immediately with a rejection status.
  ResponseFuture submit(CompileRequest request);
  /// Non-blocking variant: nullopt when the queue is full or shut down.
  std::optional<ResponseFuture> try_submit(CompileRequest request);

  /// Single-threaded reference path: runs the request inline on the caller
  /// thread — no queue, no cross-request batching. Produces bit-identical
  /// pass sequences to the worker path by construction.
  Result<CompileResponse> compile_sync(const CompileRequest& request);

  /// Idempotent; honours config.drain_on_shutdown. Called by the destructor,
  /// which therefore never races queued work against member teardown.
  void shutdown();

  /// warm_up() for one registered model against this service's eval service
  /// (ServeNode invokes this automatically for every artifact its registry
  /// installs; standalone embedders call it by hand after publishing).
  Result<WarmupReport> warm_up_model(const std::string& name, std::int64_t version = 0);

  // ---- Shadow-canary traffic splits (learn::Promoter drives these) ----
  /// Installs or replaces the split for `model`. Applies only to requests
  /// asking for the latest version (version <= 0): a pinned version is a
  /// reproducibility contract and is never rerouted. When the canary artifact
  /// is missing (e.g. gossip has not delivered it yet), the split is a no-op
  /// for that request — shadow serving degrades to incumbent serving, never
  /// to an error.
  void set_traffic_split(const std::string& model, TrafficSplit split);
  void clear_traffic_split(const std::string& model);
  [[nodiscard]] std::optional<TrafficSplit> traffic_split(const std::string& model) const;

  /// Observes every successfully completed queued request (the serving path)
  /// after its metrics are recorded and before its future resolves. ServeNode
  /// installs one to append learn::ProvenanceRecords for the online loop.
  using ProvenanceHook = std::function<void(const CompileRequest&, const CompileResponse&)>;
  void set_provenance_hook(ProvenanceHook hook);

  [[nodiscard]] ServeMetrics metrics() const;
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const std::shared_ptr<ModelRegistry>& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const std::shared_ptr<runtime::EvalService>& eval_service() const noexcept {
    return eval_;
  }
  /// This service's scrape surface. Every counter/gauge/histogram the serve
  /// path records lives here (ServeMetrics is a typed view over it); the
  /// ctor also installs callback gauges over the eval-service shard counters
  /// and the model registry, so one render_text() covers the whole node.
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>& metrics_registry() const noexcept {
    return metrics_registry_;
  }

 private:
  struct Job {
    CompileRequest request;
    std::promise<Result<CompileResponse>> promise;
    std::uint64_t sequence = 0;  // FIFO tiebreak within a priority level
    std::chrono::steady_clock::time_point enqueued;
    std::size_t depth_at_entry = 0;  // queue depth when this job joined (span attr)
  };
  /// Max-heap order: higher priority first, then earlier submission.
  struct JobOrder {
    bool operator()(const Job& a, const Job& b) const noexcept {
      if (a.request.priority != b.request.priority) {
        return a.request.priority < b.request.priority;
      }
      return a.sequence > b.sequence;
    }
  };

  void worker_loop();
  Result<CompileResponse> run_request(const CompileRequest& request, PolicyBatcher* batcher);
  ResponseFuture rejected_future();
  /// Shared tail of submit/try_submit: builds the job, pushes it onto the
  /// heap, and handles wakeups + depth bookkeeping. Consumes `lock` (held on
  /// entry, released before notifying).
  ResponseFuture enqueue_locked(CompileRequest request, std::unique_lock<std::mutex>& lock);
  /// Saturated-queue shed path (config.shed_on_saturation): evicts the
  /// cheapest-to-retry queued job when `request` outranks it, else bounces
  /// `request`. Consumes `lock` like enqueue_locked.
  ResponseFuture shed_locked(CompileRequest request, std::unique_lock<std::mutex>& lock);
  void finish_job(Job job);

  std::shared_ptr<ModelRegistry> registry_;
  std::shared_ptr<runtime::EvalService> eval_;
  CompileServiceConfig config_;
  PolicyBatcher batcher_;
  std::chrono::steady_clock::time_point started_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  // workers: work available / stopping
  std::condition_variable space_cv_;  // submitters: capacity available
  std::vector<Job> queue_;            // heap under JobOrder
  std::uint64_t next_sequence_ = 0;
  bool stopping_ = false;

  /// Control-plane state read on the serve path (traffic splits, provenance
  /// hook). Guarded separately from mutex_ (the queue lock) so a split lookup
  /// in run_request never contends with enqueue/dequeue.
  mutable std::mutex control_mutex_;
  std::map<std::string, TrafficSplit> splits_;
  ProvenanceHook provenance_hook_;

  /// All request-outcome state lives in the registry; the named handles below
  /// are the hot-path instruments (relaxed atomics, acquired once). Labelled
  /// families (per-model outcomes, per-objective completions, cycle error)
  /// are looked up per request — one small map probe on a millisecond path.
  std::shared_ptr<obs::MetricsRegistry> metrics_registry_;
  obs::Counter& ctr_completed_;
  obs::Counter& ctr_failed_;
  obs::Counter& ctr_rejected_;
  obs::Counter& ctr_cancelled_;
  obs::Counter& ctr_shed_overload_;  // jobs shed because the queue saturated
  obs::Counter& ctr_shed_deadline_;  // jobs shed because their deadline passed queued
  obs::Gauge& gauge_queue_depth_;
  obs::Gauge& gauge_max_queue_depth_;
  obs::Histogram& hist_latency_ms_;

  /// Declared last so it is destroyed first; shutdown() has already stopped
  /// the queue by the time the pool joins its workers.
  ThreadPool pool_;
};

}  // namespace autophase::serve
