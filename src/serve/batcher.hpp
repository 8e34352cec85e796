// Cross-request policy-inference batching. Serving workers blocked in
// infer_many() are collected by a leader (the first arrival), their
// observations stacked per model into one matrix and pushed through a single
// ml::Mlp::forward_batch — concurrent requests share one matmul. Because each
// output row of a forward pass is an independent dot-product chain, the
// logits a request sees are bit-identical whether its observation ran alone
// or folded into a batch of 16: batching changes latency and throughput,
// never answers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/artifact.hpp"

namespace autophase::serve {

struct BatcherConfig {
  /// Rows folded into one forward pass at most.
  std::size_t max_batch = 16;
  /// How long the leader waits for co-riders before launching a partial
  /// batch. Zero disables the wait (each arrival batch = whatever is queued).
  std::chrono::microseconds window{200};
};

struct BatcherStats {
  std::uint64_t batches = 0;        // forward_batch calls
  std::uint64_t rows = 0;           // observations inferred
  std::size_t max_batch_rows = 0;   // largest single batch
  /// Deadline-aware batching: times the leader's fold window was cut short
  /// because a pending request's deadline was nearer than the window end.
  std::uint64_t window_clamps = 0;
};

class PolicyBatcher {
 public:
  explicit PolicyBatcher(BatcherConfig config = {}) : config_(config) {}

  PolicyBatcher(const PolicyBatcher&) = delete;
  PolicyBatcher& operator=(const PolicyBatcher&) = delete;

  /// Policy logits for observations of one model (blocking; a beam front
  /// submits all its rows at once so they batch with each other as well as
  /// with other requests; one row is the single-observation case). Result i
  /// corresponds to observations[i]. When `batch_rows` is non-null it
  /// reports the largest same-model batch any of these rows rode in — the
  /// trace attribute that shows whether a request actually shared a matmul
  /// or ran alone. `group_key` partitions batches beyond the model:
  /// rows only fold with rows of the same (artifact, group_key) — the serve
  /// path passes weights_key(request.weights), so objective mixes never share
  /// a batch (today that changes nothing numerically; it is the seam where
  /// objective-conditioned value heads plug in). `deadline_at` (time_point{}
  /// = none) makes the batching deadline-aware: a leader never holds the
  /// fold window open past the earliest pending deadline, so co-riding can
  /// cost a request throughput headroom but never its deadline.
  std::vector<std::vector<double>> infer_many(
      const PolicyArtifact& artifact, const std::vector<std::vector<double>>& observations,
      std::size_t* batch_rows = nullptr, std::uint64_t group_key = 0,
      std::chrono::steady_clock::time_point deadline_at = {});

  [[nodiscard]] BatcherStats stats() const;

 private:
  struct Pending {
    const PolicyArtifact* artifact = nullptr;
    const std::vector<double>* observation = nullptr;
    std::uint64_t group_key = 0;  // objective-weights partition within a model
    std::chrono::steady_clock::time_point deadline_at{};  // {} = no deadline
    std::vector<double> logits;
    std::size_t batch_rows = 0;  // size of the same-model batch this row rode
    bool done = false;
  };

  /// Executes one batch (outside the queue lock), fulfilling every entry.
  void run_batch(std::vector<Pending*> batch);

  BatcherConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Pending*> pending_;
  bool leader_active_ = false;
  BatcherStats stats_;
};

}  // namespace autophase::serve
