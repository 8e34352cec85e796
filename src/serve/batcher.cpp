#include "serve/batcher.hpp"

#include <algorithm>

#include "ml/matrix.hpp"

namespace autophase::serve {

std::vector<std::vector<double>> PolicyBatcher::infer_many(
    const PolicyArtifact& artifact, const std::vector<std::vector<double>>& observations,
    std::size_t* batch_rows, std::uint64_t group_key,
    std::chrono::steady_clock::time_point deadline_at) {
  if (observations.empty()) {
    if (batch_rows != nullptr) *batch_rows = 0;
    return {};
  }
  std::vector<Pending> slots(observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i) {
    slots[i].artifact = &artifact;
    slots[i].observation = &observations[i];
    slots[i].group_key = group_key;
    slots[i].deadline_at = deadline_at;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  for (auto& slot : slots) pending_.push_back(&slot);
  cv_.notify_all();

  const auto mine_done = [&slots] {
    return std::all_of(slots.begin(), slots.end(), [](const Pending& p) { return p.done; });
  };
  while (!mine_done()) {
    if (leader_active_) {
      cv_.wait(lock);
      continue;
    }
    // Leader: gather co-riders, run batches until this call's rows are done,
    // then hand leadership to whoever still waits.
    leader_active_ = true;
    if (config_.window.count() > 0 && pending_.size() < config_.max_batch) {
      // Deadline-aware fold window: wait for co-riders until the configured
      // window ends OR the earliest pending deadline arrives, whichever is
      // first. Under deadline pressure the window shrinks to zero and the
      // batch launches immediately — smaller matmuls beat missed deadlines.
      const auto now = std::chrono::steady_clock::now();
      auto wake_at = now + config_.window;
      bool clamped = false;
      for (const Pending* p : pending_) {
        if (p->deadline_at != std::chrono::steady_clock::time_point{} &&
            p->deadline_at < wake_at) {
          wake_at = std::max(p->deadline_at, now);
          clamped = true;
        }
      }
      if (clamped) ++stats_.window_clamps;
      if (wake_at > now) {
        cv_.wait_until(lock, wake_at,
                       [this] { return pending_.size() >= config_.max_batch; });
      }
    }
    while (!pending_.empty() && !mine_done()) {
      const std::size_t take = std::min(pending_.size(), config_.max_batch);
      std::vector<Pending*> batch(pending_.begin(),
                                  pending_.begin() + static_cast<std::ptrdiff_t>(take));
      pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(take));
      lock.unlock();
      run_batch(batch);  // fills logits; completion is published under the lock
      lock.lock();
      for (Pending* p : batch) p->done = true;
      cv_.notify_all();
    }
    leader_active_ = false;
    cv_.notify_all();
  }
  std::vector<std::vector<double>> out;
  out.reserve(slots.size());
  std::size_t rode = 0;
  for (auto& slot : slots) {
    rode = std::max(rode, slot.batch_rows);
    out.push_back(std::move(slot.logits));
  }
  if (batch_rows != nullptr) *batch_rows = rode;
  return out;
}

void PolicyBatcher::run_batch(std::vector<Pending*> batch) {
  // One forward per distinct model in the batch, rows in arrival order.
  std::vector<bool> grouped(batch.size(), false);
  std::uint64_t groups = 0;
  std::size_t max_rows = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (grouped[i]) continue;
    std::vector<std::size_t> members;
    for (std::size_t j = i; j < batch.size(); ++j) {
      if (!grouped[j] && batch[j]->artifact == batch[i]->artifact &&
          batch[j]->group_key == batch[i]->group_key) {
        grouped[j] = true;
        members.push_back(j);
      }
    }
    // Gather the group's rows into one flat staging buffer the network
    // adopts directly — no per-row vectors, no second stacking copy.
    const std::size_t width = batch[i]->artifact->policy.config().input;
    std::vector<double> rows(members.size() * width);
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::vector<double>& obs = *batch[members[k]]->observation;
      assert(obs.size() == width);
      std::copy(obs.begin(), obs.end(), rows.begin() + static_cast<std::ptrdiff_t>(k * width));
    }
    const ml::Matrix logits =
        batch[i]->artifact->policy.forward_batch(std::move(rows), members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
      batch[members[k]]->logits.assign(logits.row(k), logits.row(k) + logits.cols());
      batch[members[k]]->batch_rows = members.size();
    }
    ++groups;
    max_rows = std::max(max_rows, members.size());
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.batches += groups;
  stats_.rows += batch.size();
  stats_.max_batch_rows = std::max(stats_.max_batch_rows, max_rows);
}

BatcherStats PolicyBatcher::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace autophase::serve
