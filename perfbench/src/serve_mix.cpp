// serve_mix: a closed loop of client threads, each calling
// RemoteCompileClient::compile over loopback to one in-process
// net::ServeNode and sending its next request only when the reply arrived.
// Set-up publishes a PPO-initialised policy at the paper's settings and
// compiles every repeated request once, so repeated kernels are warm; a
// fixed share of requests are fresh programs, which are cold.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>

#include "ir/clone.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "replay.hpp"
#include "rl/env.hpp"
#include "rl/ppo.hpp"
#include "serve/artifact.hpp"
#include "serve/remote_client.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ap = autophase;
using ap::ir::Module;
using ap::serve::CompileRequest;
using ap::serve::CompileResponse;
using ap::serve::Objective;

constexpr const char* kModel = "perfbench";
/// The served policy's initialisation seed and the seed of the random
/// programs fresh requests are made from. Fixed, so every request decodes
/// the same way and costs the same for every workload seed; the seed picks
/// the request stream.
constexpr std::uint64_t kPolicySeed = 1;
constexpr std::uint64_t kProgramSeed = 1;
/// Every kFreshEvery-th request of a client compiles a fresh program. Fresh
/// Pareto requests (a third of them, about 2% of all requests) are the
/// slowest class, so they are every request beyond the p99 and the p99
/// reads the cold path (interpreter and scheduler) while the p50 reads the
/// warm one; the run prints the split by class to show it.
constexpr std::size_t kFreshEvery = 16;
/// Random programs that fresh requests are made from. Three, taken in turn:
/// the p99 falls near the middle of the fresh Pareto requests, so it reads
/// the middle base's cost and a request more or less does not move it to
/// another base's.
constexpr std::size_t kFreshBases = 3;

/// A repeated request shape: one kernel under one decode configuration.
/// The three configurations get equal shares so each gets the same sample
/// count. The Pareto weights and front width are those the wire tests use.
struct Template {
  std::size_t kernel = 0;
  int beam = 1;
  Objective objective = Objective::kCycles;
  bool pareto = false;
};

/// Request classes for the latency split: the three decode configurations
/// (template index % 3) on repeated kernels, then on fresh programs.
constexpr const char* kClassNames[] = {"greedy",       "beam4",       "pareto",
                                       "fresh-greedy", "fresh-beam4", "fresh-pareto"};

CompileRequest make_request(const Module& module, const Template& shape) {
  CompileRequest request;
  request.module = &module;
  request.model = kModel;
  request.objective = shape.objective;
  request.beam_width = shape.beam;
  if (shape.pareto) {
    request.weights = {1.0, 0.5, 0.25};
    request.front_width = 4;
  }
  return request;
}

std::uint64_t identity_hash(const CompileResponse& response) {
  return ap::fnv1a(ap::net::response_identity_bytes(response));
}

struct Inputs {
  std::vector<Kernel> kernels;
  std::vector<Template> templates;
  std::vector<std::unique_ptr<Module>> bases;
};

Inputs make_inputs() {
  Inputs in;
  in.kernels = load_kernels();
  for (std::size_t k = 0; k < in.kernels.size(); ++k) {
    in.templates.push_back({k, 1, Objective::kCycles, false});
    in.templates.push_back({k, 4, Objective::kCyclesTimesArea, false});
    in.templates.push_back({k, 1, Objective::kCycles, true});
  }
  for (std::size_t i = 0; i < kFreshBases; ++i) {
    in.bases.push_back(banded_random_program(kProgramSeed * 1'000'003 + i));
  }
  return in;
}

/// A fresh program: a copy of a base program under a name no other request
/// uses. The module name is part of every module fingerprint, so the node's
/// cache has none of its decode's measurements and the request runs the
/// interpreter and scheduler on every step, while its cost stays that of
/// its base. Fresh programs therefore never run out, however fast the node.
std::unique_ptr<Module> fresh_program(const Inputs& in, std::size_t base, const std::string& name) {
  auto module = ap::ir::clone_module(*in.bases[base]);
  module->set_name(name);
  return module;
}

/// One set-up: a serving node with the policy published through the wire
/// and every repeated request compiled once.
struct Served {
  std::unique_ptr<ap::net::ServeNode> node;
  std::unique_ptr<ap::serve::RemoteCompileClient> client;
  std::unique_ptr<ap::ml::Mlp> policy;
  std::vector<CompileResponse> warm;  // compile_sync reply per template
  std::vector<std::uint64_t> expected;  // identity-bytes hash per template
  ap::runtime::EvalStats warm_stats;    // eval counters after the warm-up
};

Served set_up(const Inputs& in, std::size_t threads) {
  Served served;
  ap::net::ServeNodeConfig config;
  config.compile.workers = threads;
  config.net_workers = threads;
  served.node = std::make_unique<ap::net::ServeNode>(nullptr, nullptr, config);
  if (const auto started = served.node->start(); !started.is_ok()) {
    throw std::runtime_error("serve node failed to start: " + started.message());
  }
  ap::serve::RemoteClientConfig client_config;
  client_config.pool_per_node = threads;
  served.client = std::make_unique<ap::serve::RemoteCompileClient>(
      std::vector<ap::net::RemoteEndpoint>{served.node->endpoint()}, client_config);

  const ap::rl::EnvConfig env_config = paper_env_config();
  ap::rl::PhaseOrderEnv env({in.kernels[0].module.get()}, env_config);
  ap::rl::PpoConfig ppo;
  ppo.hidden = {256, 256};
  ppo.seed = kPolicySeed;
  const ap::rl::PpoTrainer trainer(env, ppo);
  served.policy = std::make_unique<ap::ml::Mlp>(trainer.policy());
  const auto published =
      served.client->publish(0, kModel, ap::serve::make_artifact(trainer.export_policy(), env_config));
  if (!published.is_ok()) throw std::runtime_error("publish failed: " + published.message());

  for (const Template& shape : in.templates) {
    auto response =
        served.node->service().compile_sync(make_request(*in.kernels[shape.kernel].module, shape));
    if (!response.is_ok()) throw std::runtime_error("warm-up compile failed: " + response.message());
    served.expected.push_back(identity_hash(response.value()));
    served.warm.push_back(std::move(response.value()));
  }
  served.warm_stats = served.node->service().eval_service()->stats();
  return served;
}

struct Sample {
  double rt_ms = 0.0;
  double end_s = 0.0;  // reply time, seconds from the loop's start
  std::uint64_t queue_ns = 0;
  std::uint64_t serve_ns = 0;
  std::size_t shape = 0;        // template index (repeated requests)
  std::int64_t fresh_base = -1;  // base program of a fresh request, or -1
  std::string fresh_name;       // its module name
  std::uint64_t identity = 0;   // hash of the reply's identity bytes
  bool ok = false;

  [[nodiscard]] std::size_t request_class() const {
    return shape % 3 + (fresh_base >= 0 ? 3 : 0);
  }
};

/// One request on a client thread. Traced, it records bench.request around
/// net.compile (the client call); the server's queue and serve time ride
/// back in the response and become serve.queue and serve.compute children.
Sample serve_one(ap::serve::RemoteCompileClient& client, const CompileRequest& request,
                 LayerTrace* trace) {
  Sample sample;
  std::optional<obs::ScopedSpan> root;
  std::optional<obs::ScopedSpan> call;
  if (trace != nullptr) {
    root.emplace(trace->live, trace->live.begin_trace(), "bench.request");
    call.emplace(trace->live, root->context(), "net.compile");
  }
  const std::uint64_t start_ns = obs::trace_now_ns();
  const auto response = client.compile(request);
  const std::uint64_t end_ns = obs::trace_now_ns();
  sample.rt_ms = static_cast<double>(end_ns - start_ns) / 1e6;
  sample.ok = response.is_ok();
  if (!sample.ok) return sample;
  sample.queue_ns = response.value().queue_nanos;
  sample.serve_ns = response.value().serve_nanos;
  if (trace != nullptr) {
    const std::uint64_t server_ns = sample.queue_ns + sample.serve_ns;
    const std::uint64_t wire_ns = end_ns - start_ns > server_ns ? end_ns - start_ns - server_ns : 0;
    const std::uint64_t queue_start = start_ns + wire_ns / 2;
    const obs::TraceContext ctx = call->context();
    LayerTrace::record(trace->live, trace->live.child_of(ctx), ctx.span, "serve.queue",
                       queue_start, queue_start + sample.queue_ns);
    LayerTrace::record(trace->live, trace->live.child_of(ctx), ctx.span, "serve.compute",
                       queue_start + sample.queue_ns, queue_start + server_ns);
    call.reset();
  }
  sample.identity = identity_hash(response.value());
  return sample;
}

struct ClientLoop {
  std::vector<Sample> samples;
  double wall_s = 0.0;
};

/// Closed loop: `threads` clients, each with its own seeded request stream
/// of repeated shapes, every kFreshEvery-th request replaced by a fresh
/// one. A client's fresh requests take the three decode configurations in
/// turn and, per configuration, the base programs in turn, so every run
/// sends each configuration on every base about equally often. A fresh
/// request's program is copied before its round trip starts.
ClientLoop run_clients(const Inputs& in, Served& served, std::uint64_t seed, std::uint64_t phase,
                       double seconds, std::size_t threads, LayerTrace* trace) {
  std::vector<std::vector<Sample>> per_client(threads);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  run_threads(threads, [&](std::size_t c) {
    ap::Rng rng(seed * 0x9e3779b97f4a7c15ull + phase * 64 + c + 1);
    std::size_t fresh_sent = 0;
    while (Clock::now() < deadline) {
      const bool fresh = per_client[c].size() % kFreshEvery == kFreshEvery - 1;
      auto shape = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(in.templates.size()) - 1));
      std::size_t base = 0;
      std::unique_ptr<Module> program;
      std::string name;
      if (fresh) {
        shape = fresh_sent % 3;  // template 0..2: kernel 0 under each configuration
        base = (fresh_sent / 3 + c) % in.bases.size();
        ++fresh_sent;
        name = "fresh-" + std::to_string(phase) + "-" + std::to_string(c) + "-" +
               std::to_string(per_client[c].size());
        program = fresh_program(in, base, name);
      }
      const CompileRequest request =
          make_request(fresh ? *program : *in.kernels[in.templates[shape].kernel].module,
                       in.templates[shape]);
      Sample sample = serve_one(*served.client, request, trace);
      sample.end_s = seconds_since(start);
      sample.shape = shape;
      if (fresh) {
        sample.fresh_base = static_cast<std::int64_t>(base);
        sample.fresh_name = std::move(name);
      }
      per_client[c].push_back(std::move(sample));
    }
  });
  ClientLoop loop;
  loop.wall_s = seconds_since(start);
  for (auto& samples : per_client) {
    std::move(samples.begin(), samples.end(), std::back_inserter(loop.samples));
  }
  return loop;
}

/// A fresh request kept for the traced run's replay.
struct FreshReply {
  std::unique_ptr<Module> program;
  std::vector<int> sequence;
};

/// Output checks (untimed): every reply must be byte-identical to
/// compile_sync on the node. Repeated requests compare with the warm-up
/// replies; each served fresh program is rebuilt and compiled again here,
/// in parallel, and the first `keep` are returned for the replay.
std::vector<FreshReply> check(const Inputs& in, Served& served, const std::vector<Sample>& samples,
                              std::size_t threads, std::size_t keep, Report& report) {
  std::vector<const Sample*> fresh;
  for (const Sample& s : samples) {
    report.ops.record(s.ok);
    if (!s.ok) {
      report.fail("a request failed");
    } else if (s.fresh_base < 0 && s.identity != served.expected[s.shape]) {
      report.ops.check(false);
      report.fail("remote reply differs from compile_sync");
    } else if (s.fresh_base >= 0) {
      fresh.push_back(&s);
    }
  }
  std::vector<FreshReply> kept(std::min(keep, fresh.size()));
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> mismatches{0};
  run_threads(threads, [&](std::size_t) {
    for (std::size_t i = next.fetch_add(1); i < fresh.size(); i = next.fetch_add(1)) {
      auto program =
          fresh_program(in, static_cast<std::size_t>(fresh[i]->fresh_base), fresh[i]->fresh_name);
      const auto response =
          served.node->service().compile_sync(make_request(*program, in.templates[fresh[i]->shape]));
      if (!response.is_ok() || identity_hash(response.value()) != fresh[i]->identity) {
        mismatches.fetch_add(1);
      } else if (i < kept.size()) {
        kept[i] = {std::move(program), response.value().provenance.sequence};
      }
    }
  });
  for (std::size_t i = 0; i < mismatches.load(); ++i) {
    report.ops.check(false);
    report.fail("remote reply for a fresh program differs from compile_sync");
  }
  return kept;
}

/// Round-trip latency per request class, the share of fresh requests, and
/// the classes of the requests beyond the tail percentile: which traffic
/// sets the p50 and which sets the tail.
void report_classes(const std::vector<Sample>& samples, double tail_q, Report& report) {
  std::vector<double> all;
  std::vector<std::vector<double>> by_class(std::size(kClassNames));
  std::size_t fresh = 0;
  for (const Sample& s : samples) {
    if (!s.ok) continue;
    all.push_back(s.rt_ms);
    by_class[s.request_class()].push_back(s.rt_ms);
    fresh += s.fresh_base >= 0 ? 1 : 0;
  }
  const double tail = quantile(all, tail_q);
  std::vector<std::size_t> beyond(std::size(kClassNames), 0);
  for (const Sample& s : samples) {
    if (s.ok && s.rt_ms > tail) ++beyond[s.request_class()];
  }
  const auto share = [&all](std::size_t n) {
    return all.empty() ? 0.0 : static_cast<double>(n) / static_cast<double>(all.size());
  };
  std::string line = "round trip by class:";
  std::string split;
  for (std::size_t k = 0; k < std::size(kClassNames); ++k) {
    const std::vector<double>& v = by_class[k];
    char buf[160];
    std::snprintf(buf, sizeof buf, " %s n=%zu (%.1f%%) p50 %.3g ms p99 %.3g ms;", kClassNames[k],
                  v.size(), 100.0 * share(v.size()), quantile(v, 0.5), quantile(v, 0.99));
    line += buf;
    if (beyond[k] > 0) {
      split += std::string(split.empty() ? "" : ", ") + kClassNames[k] + " " +
               std::to_string(beyond[k]);
    }
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "fresh requests: %zu of %zu (%.2f%%)", fresh, all.size(),
                100.0 * share(fresh));
  report.lines.push_back(buf);
  report.lines.push_back(line);
  report.provenance["latency_ms_tail"] += "; beyond it: " + split;
  report.provenance["throughput_per_s"] += std::string("; ") + buf;
}

void report_end_to_end(const ClientLoop& loop, double cpu_s, Report& report) {
  std::vector<double> rt_ms;
  std::vector<double> ends;
  for (const Sample& s : loop.samples) {
    if (!s.ok) continue;
    rt_ms.push_back(s.rt_ms);
    ends.push_back(s.end_s);
  }
  // Throughput per tile of 50 consecutive completions; the median tile.
  constexpr std::size_t kTile = 50;
  std::sort(ends.begin(), ends.end());
  std::vector<double> rates;
  for (std::size_t i = kTile; i < ends.size(); i += kTile) {
    rates.push_back(static_cast<double>(kTile) / (ends[i] - ends[i - kTile]));
  }
  report.metrics["throughput_per_s"] = quantile(rates, 0.5);
  report.provenance["throughput_per_s"] =
      "median over tiles of 50 consecutive completions of requests per second (" +
      std::to_string(rt_ms.size()) + " in " + json_number(loop.wall_s).substr(0, 5) +
      " s), closed loop";
  report_latency(rt_ms, 0.99, "client round trips", report);
  report_classes(loop.samples, 0.99, report);
  report.metrics["cpu_ms_per_op"] = cpu_s * 1e3 / static_cast<double>(std::max<std::size_t>(1, rt_ms.size()));
  report.provenance["cpu_ms_per_op"] =
      "process CPU time (server and clients) per completed request over the loop";
}

void report_layers(const Inputs& in, const Served& served, const ClientLoop& traced,
                   const ap::serve::BatcherStats& batch0, const ap::runtime::EvalStats& eval0,
                   const std::vector<FreshReply>& fresh, LayerTrace& trace, Report& report) {
  std::vector<double> queue_ms;
  std::vector<double> compute_ms;
  std::vector<double> overhead_ms;
  for (const Sample& s : traced.samples) {
    if (!s.ok) continue;
    queue_ms.push_back(static_cast<double>(s.queue_ns) / 1e6);
    compute_ms.push_back(static_cast<double>(s.serve_ns) / 1e6);
    overhead_ms.push_back(s.rt_ms - static_cast<double>(s.queue_ns + s.serve_ns) / 1e6);
  }
  const auto put = [&report](const char* name, const std::vector<double>& samples,
                             const char* what) {
    const Summary s = summarize(samples);
    report.metrics[name] = s.p50;
    report.provenance[name] = std::string("live p50 of ") + what + " over n=" +
                              std::to_string(s.n) + " (p" + json_number(s.tail_q * 100.0) + "=" +
                              json_number(s.tail).substr(0, 6) + ")";
  };
  put("serve.queue_wait_ms", queue_ms, "CompileResponse::queue_nanos");
  put("serve.compute_ms", compute_ms, "CompileResponse::serve_nanos");
  put("net.overhead_ms", overhead_ms, "round trip - queue - serve");

  const ap::serve::BatcherStats batch1 = served.node->service().metrics().batcher;
  const std::uint64_t batches = batch1.batches - batch0.batches;
  report.metrics["serve.batch_rows_mean"] =
      batches == 0 ? 0.0 : static_cast<double>(batch1.rows - batch0.rows) / static_cast<double>(batches);
  ap::runtime::EvalStats eval1 = served.node->service().eval_service()->stats();
  ap::runtime::EvalStats delta;
  delta.hits = eval1.hits - eval0.hits;
  delta.sequence_hits = eval1.sequence_hits - eval0.sequence_hits;
  delta.misses = eval1.misses - eval0.misses;
  report.metrics["serve.hit_ratio"] = delta.hit_rate();
  report.provenance["serve.batch_rows_mean"] = "live: batcher rows / batches in the traced phase";
  report.provenance["serve.hit_ratio"] = "live: node EvalService hit rate in the traced phase";
  const double profile_busy_s = static_cast<double>(eval1.eval_nanos - eval0.eval_nanos) / 1e9;

  // Replays: every repeated request (the count set), then some fresh ones.
  const ap::rl::EnvConfig env = paper_env_config();
  std::vector<ReplayItem> items;
  for (std::size_t t = 0; t < in.templates.size(); ++t) {
    items.push_back({in.kernels[in.templates[t].kernel].module.get(),
                     served.warm[t].provenance.sequence});
  }
  const ReplayCounts counts = replay_decode(items, served.policy.get(), env, trace.replay);
  std::vector<ReplayItem> fresh_items;
  for (const FreshReply& f : fresh) {
    if (f.program) fresh_items.push_back({f.program.get(), f.sequence});
  }
  (void)replay_decode(fresh_items, served.policy.get(), env, trace.replay);
  report_counts(counts, served.warm_stats, "node EvalService after the set-up warm-up",
                profile_busy_s, report);

  // Wire codec, replayed on the repeated requests and their replies.
  double request_bytes = 0.0;
  double response_bytes = 0.0;
  for (std::size_t t = 0; t < in.templates.size(); ++t) {
    const CompileRequest request =
        make_request(*in.kernels[in.templates[t].kernel].module, in.templates[t]);
    ap::serve::CompileResponse copy;  // the encoder takes a Result it owns
    copy.module = ap::ir::clone_module(*served.warm[t].module);
    copy.provenance = served.warm[t].provenance;
    copy.front = served.warm[t].front;
    copy.front_hypervolume = served.warm[t].front_hypervolume;
    const ap::Result<CompileResponse> reply(std::move(copy));
    const obs::ScopedSpan root(trace.replay, trace.replay.begin_trace(), "bench.replay");
    const obs::ScopedSpan span(trace.replay, root.context(), "net.codec");
    const std::string request_wire = ap::net::encode_compile_request(request);
    (void)ap::net::decode_compile_request(request_wire);
    const std::string response_wire = ap::net::encode_compile_response(reply);
    (void)ap::net::decode_compile_response(response_wire);
    request_bytes += static_cast<double>(request_wire.size());
    response_bytes += static_cast<double>(response_wire.size());
  }
  const double n = static_cast<double>(in.templates.size());
  report.metrics["net.request_bytes"] = request_bytes / n;
  report.metrics["net.response_bytes"] = response_bytes / n;
  report.provenance["net.request_bytes"] = "count set: mean encoded request over repeated requests";
  report.provenance["net.response_bytes"] = "count set: mean encoded reply over repeated requests";
}

}  // namespace

Report run_serve_mix(const Options& options, LayerTrace* trace) {
  Report report;
  const Inputs in = make_inputs();
  double setup_s = 0.0;
  Served served = timed_setup([&] { return set_up(in, options.threads); }, setup_s);
  report.metrics["setup_s"] = setup_s;
  std::vector<double> ratios;
  for (std::size_t t = 0; t < in.templates.size(); ++t) {
    ratios.push_back(static_cast<double>(served.warm[t].provenance.measured_cycles) /
                     static_cast<double>(in.kernels[in.templates[t].kernel].o3_cycles));
  }
  report.metrics["cycles_vs_o3"] = geomean(ratios);
  report.provenance["cycles_vs_o3"] = "geomean over repeated requests of cycles / -O3 cycles";

  if (trace == nullptr) {
    const double cpu0 = process_cpu_s();
    const ClientLoop loop =
        run_clients(in, served, options.seed, 0, options.seconds, options.threads, nullptr);
    const double cpu_s = process_cpu_s() - cpu0;
    report.metrics["peak_rss_mb"] = peak_rss_mb();  // before the checks allocate
    (void)check(in, served, loop.samples, options.threads, 0, report);
    report_end_to_end(loop, cpu_s, report);
    return report;
  }

  const ClientLoop untraced = run_clients(in, served, options.seed, 0,
                                          options.seconds * kUntracedShare, options.threads,
                                          nullptr);
  const ap::serve::BatcherStats batch0 = served.node->service().metrics().batcher;
  const ap::runtime::EvalStats eval0 = served.node->service().eval_service()->stats();
  const ClientLoop traced = run_clients(in, served, options.seed, 1,
                                        options.seconds * (1.0 - kUntracedShare),
                                        options.threads, trace);
  std::vector<Sample> all = untraced.samples;
  all.insert(all.end(), traced.samples.begin(), traced.samples.end());
  const std::vector<FreshReply> fresh = check(in, served, all, options.threads, 16, report);
  report_layers(in, served, traced, batch0, eval0, fresh, *trace, report);
  finish_trace(options, *trace, untraced.wall_s / static_cast<double>(untraced.samples.size()),
               traced.wall_s / static_cast<double>(std::max<std::size_t>(1, traced.samples.size())),
               report);
  return report;
}

}  // namespace perfbench
