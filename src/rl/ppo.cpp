#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <iterator>

#include "support/str.hpp"

namespace autophase::rl {

PpoConfig vanilla_pg_config() {
  PpoConfig c;
  c.epochs = 1;
  c.clip = 1e9;  // no clipping: plain policy-gradient surrogate
  c.gae_lambda = 1.0;
  return c;
}

namespace {

ml::MlpConfig net_config(std::size_t input, const std::vector<std::size_t>& hidden,
                         std::size_t output) {
  ml::MlpConfig c;
  c.input = input;
  c.hidden = hidden;
  c.output = output;
  return c;
}

ml::Matrix row_matrix(const std::vector<double>& v) {
  ml::Matrix m(1, v.size());
  std::copy(v.begin(), v.end(), m.row(0));
  return m;
}

}  // namespace

PpoTrainer::PpoTrainer(Env& env, PpoConfig config)
    : env_(&env),
      config_(config),
      rng_(config.seed),
      dist_{env.action_groups(), env.action_arity()},
      policy_(net_config(env.observation_size(), config.hidden, dist_.logit_count()), rng_),
      value_(net_config(env.observation_size(), config.hidden, 1), rng_),
      policy_opt_(policy_, {.lr = config.learning_rate}),
      value_opt_(value_, {.lr = config.learning_rate}) {}

PpoTrainer::PpoTrainer(runtime::VecEnv& vec, PpoConfig config)
    : vec_(&vec),
      config_(config),
      rng_(config.seed),
      dist_{vec.action_groups(), vec.action_arity()},
      policy_(net_config(vec.observation_size(), config.hidden, dist_.logit_count()), rng_),
      value_(net_config(vec.observation_size(), config.hidden, 1), rng_),
      policy_opt_(policy_, {.lr = config.learning_rate}),
      value_opt_(value_, {.lr = config.learning_rate}) {}

PolicyExport PpoTrainer::export_policy() const noexcept {
  return {&policy_, &value_, dist_.groups, dist_.arity};
}

namespace {

/// Shape equality for warm-start validation (activation included: copying
/// tanh weights into a ReLU net would run but compute a different policy).
bool same_shape(const ml::MlpConfig& a, const ml::MlpConfig& b) {
  return a.input == b.input && a.hidden == b.hidden && a.output == b.output &&
         a.activation == b.activation;
}

std::string shape_of(const ml::MlpConfig& c) {
  std::string s = strf("%zu", c.input);
  for (const std::size_t h : c.hidden) s += strf("x%zu", h);
  return s + strf("x%zu", c.output);
}

}  // namespace

Status PpoTrainer::warm_start(const ml::Mlp& policy, const ml::Mlp* value) {
  if (!same_shape(policy.config(), policy_.config())) {
    return Status::error(strf("warm start: policy shape %s does not match trainer %s",
                              shape_of(policy.config()).c_str(),
                              shape_of(policy_.config()).c_str()));
  }
  if (value != nullptr && !same_shape(value->config(), value_.config())) {
    return Status::error(strf("warm start: value shape %s does not match trainer %s",
                              shape_of(value->config()).c_str(),
                              shape_of(value_.config()).c_str()));
  }
  policy_.assign(policy.flatten());
  if (value != nullptr) value_.assign(value->flatten());
  return Status::ok();
}

double PpoTrainer::value_of(const std::vector<double>& observation) const {
  const ml::Matrix out = value_.forward(row_matrix(observation));
  return out.at(0, 0);
}

std::vector<std::size_t> PpoTrainer::act_greedy(const std::vector<double>& observation) const {
  const ml::Matrix logits = policy_.forward(row_matrix(observation));
  return dist_.argmax_all(logits.row(0));
}

std::vector<std::size_t> PpoTrainer::act_sample(const std::vector<double>& observation) {
  const ml::Matrix logits = policy_.forward(row_matrix(observation));
  return dist_.sample_all(logits.row(0), rng_);
}

IterationStats PpoTrainer::iterate() { return vec_ != nullptr ? iterate_vec() : iterate_env(); }

IterationStats PpoTrainer::iterate_env() {
  RolloutBuffer buffer;
  if (need_reset_) {
    obs_ = env_->reset();
    need_reset_ = false;
  }
  for (int step = 0; step < config_.steps_per_iteration; ++step) {
    const ml::Matrix logits = policy_.forward(row_matrix(obs_));
    const auto action = dist_.sample_all(logits.row(0), rng_);
    Transition t;
    t.observation = obs_;
    t.action = action;
    t.log_prob = dist_.log_prob_all(logits.row(0), action);
    t.value = value_of(obs_);
    const StepResult sr = env_->step(action);
    t.reward = sr.reward;
    t.done = sr.done;
    buffer.transitions.push_back(std::move(t));
    obs_ = sr.done ? env_->reset() : sr.observation;
  }
  const double last_value = value_of(obs_);
  buffer.compute_gae(config_.gamma, config_.gae_lambda,
                     buffer.transitions.back().done ? 0.0 : last_value);
  return finish_iteration(buffer, buffer.episode_reward_mean(), env_->sample_count());
}

IterationStats PpoTrainer::iterate_vec() {
  const std::size_t k = vec_->size();
  if (need_reset_) {
    vec_obs_ = vec_->reset();
    need_reset_ = false;
  }
  std::vector<RolloutBuffer> lanes(k);
  const int steps_per_lane =
      (config_.steps_per_iteration + static_cast<int>(k) - 1) / static_cast<int>(k);
  const std::size_t obs_size = vec_->observation_size();
  for (int step = 0; step < steps_per_lane; ++step) {
    // One batched forward pass over all K lanes for both networks.
    ml::Matrix obs(k, obs_size);
    for (std::size_t w = 0; w < k; ++w) {
      std::copy(vec_obs_[w].begin(), vec_obs_[w].end(), obs.row(w));
    }
    const ml::Matrix logits = policy_.forward(obs);
    const ml::Matrix values = value_.forward(obs);
    std::vector<std::vector<std::size_t>> actions(k);
    for (std::size_t w = 0; w < k; ++w) {
      // Per-worker streams keep sampling deterministic for any thread count.
      actions[w] = dist_.sample_all(logits.row(w), vec_->worker_rng(w));
    }
    const auto results = vec_->step_batch(actions);
    for (std::size_t w = 0; w < k; ++w) {
      Transition t;
      t.observation = std::move(vec_obs_[w]);
      t.action = actions[w];
      t.log_prob = dist_.log_prob_all(logits.row(w), actions[w]);
      t.value = values.at(w, 0);
      t.reward = results[w].reward;
      t.done = results[w].done;
      lanes[w].transitions.push_back(std::move(t));
      vec_obs_[w] = results[w].observation;  // auto-reset applied by VecEnv
    }
  }

  // GAE per lane (lanes are independent trajectories; bootstrapping across
  // them would be wrong), then merge everything for the shared update.
  RolloutBuffer merged;
  double completed_total = 0.0;
  int completed_episodes = 0;
  double partial_total = 0.0;
  for (std::size_t w = 0; w < k; ++w) {
    RolloutBuffer& lane = lanes[w];
    const double last_value = lane.transitions.back().done ? 0.0 : value_of(vec_obs_[w]);
    lane.compute_gae(config_.gamma, config_.gae_lambda, last_value);
    double episode = 0.0;
    for (const Transition& t : lane.transitions) {
      episode += t.reward;
      if (t.done) {
        completed_total += episode;
        episode = 0.0;
        ++completed_episodes;
      }
    }
    partial_total += episode;
    std::move(lane.transitions.begin(), lane.transitions.end(),
              std::back_inserter(merged.transitions));
    merged.advantages.insert(merged.advantages.end(), lane.advantages.begin(),
                             lane.advantages.end());
    merged.returns.insert(merged.returns.end(), lane.returns.begin(), lane.returns.end());
  }
  const double reward_mean = completed_episodes > 0
                                 ? completed_total / completed_episodes
                                 : partial_total / static_cast<double>(k);
  return finish_iteration(merged, reward_mean, vec_->sample_count());
}

IterationStats PpoTrainer::finish_iteration(RolloutBuffer& buffer, double reward_mean,
                                            std::size_t env_samples) {
  buffer.normalize_advantages();
  update(buffer);

  IterationStats stats;
  stats.iteration = iteration_++;
  stats.episode_reward_mean = reward_mean;
  stats.policy_entropy = last_entropy_;
  stats.env_samples = env_samples;
  return stats;
}

namespace {

/// Observations of the given buffer rows stacked into one matrix.
ml::Matrix gather_observations(const RolloutBuffer& buffer, const std::vector<std::size_t>& rows) {
  ml::Matrix obs(rows.size(), buffer.transitions[0].observation.size());
  for (std::size_t b = 0; b < rows.size(); ++b) {
    const auto& o = buffer.transitions[rows[b]].observation;
    std::copy(o.begin(), o.end(), obs.row(b));
  }
  return obs;
}

}  // namespace

void PpoTrainer::update(const RolloutBuffer& buffer) {
  // Every epoch's shuffle is drawn before either network trains. The
  // shuffles are the update's only use of rng_, so this draws the same
  // minibatches as interleaving them with the SGD steps would.
  const std::size_t n = buffer.transitions.size();
  const auto size = static_cast<std::size_t>(config_.minibatch_size);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::vector<std::vector<std::size_t>> minibatches;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t start = 0; start < n; start += size) {
      const auto first = order.begin() + static_cast<std::ptrdiff_t>(start);
      const auto last = first + static_cast<std::ptrdiff_t>(std::min(size, n - start));
      minibatches.emplace_back(first, last);
    }
  }

  // The two loops share only read-only state (buffer, minibatches, config_,
  // dist_); each owns its network, optimiser and gradients. So running the
  // value loop on another thread changes no bit of either result.
  ThreadPool* pool = vec_ != nullptr ? vec_->pool() : nullptr;
  if (pool == nullptr || pool->size() <= 1) {
    update_policy(buffer, minibatches);
    update_value(buffer, minibatches);
    return;
  }
  std::future<void> value_done = pool->submit([&] { update_value(buffer, minibatches); });
  try {
    update_policy(buffer, minibatches);
  } catch (...) {
    value_done.wait();  // the task references this frame
    throw;
  }
  value_done.get();
}

void PpoTrainer::update_policy(const RolloutBuffer& buffer,
                               const std::vector<std::vector<std::size_t>>& minibatches) {
  const std::size_t logit_count = dist_.logit_count();
  double entropy_acc = 0.0;
  std::size_t entropy_samples = 0;
  for (const std::vector<std::size_t>& rows : minibatches) {
    const std::size_t batch = rows.size();
    ml::ForwardCache pcache;
    const ml::Matrix logits = policy_.forward(gather_observations(buffer, rows), &pcache);
    ml::Matrix dlogits(batch, logit_count);
    for (std::size_t b = 0; b < batch; ++b) {
      const auto& t = buffer.transitions[rows[b]];
      const double adv = buffer.advantages[rows[b]];
      const double new_lp = dist_.log_prob_all(logits.row(b), t.action);
      const double ratio = std::exp(new_lp - t.log_prob);
      // Clipped surrogate: gradient flows only when unclipped is active.
      const bool clipped = (adv >= 0.0 && ratio > 1.0 + config_.clip) ||
                           (adv < 0.0 && ratio < 1.0 - config_.clip);
      std::vector<double> lp_grad(logit_count, 0.0);
      dist_.log_prob_grad_all(logits.row(b), t.action, lp_grad.data());
      std::vector<double> ent_grad(logit_count, 0.0);
      for (std::size_t g = 0; g < dist_.groups; ++g) {
        ml::entropy_grad(logits.row(b) + g * dist_.arity, dist_.arity,
                         ent_grad.data() + g * dist_.arity);
      }
      const double policy_scale = clipped ? 0.0 : ratio * adv;
      for (std::size_t j = 0; j < logit_count; ++j) {
        // Minimise -(surrogate + entropy bonus).
        dlogits.at(b, j) = -(policy_scale * lp_grad[j] + config_.entropy_coef * ent_grad[j]) /
                           static_cast<double>(batch);
      }
      entropy_acc += dist_.entropy_all(logits.row(b));
      ++entropy_samples;
    }
    ml::Gradients pgrads = policy_.make_gradients();
    policy_.backward(pcache, dlogits, pgrads);
    policy_opt_.step(policy_, pgrads);
  }
  last_entropy_ = entropy_samples > 0 ? entropy_acc / static_cast<double>(entropy_samples) : 0.0;
}

void PpoTrainer::update_value(const RolloutBuffer& buffer,
                              const std::vector<std::vector<std::size_t>>& minibatches) {
  // MSE to the GAE returns.
  for (const std::vector<std::size_t>& rows : minibatches) {
    const std::size_t batch = rows.size();
    ml::ForwardCache vcache;
    const ml::Matrix values = value_.forward(gather_observations(buffer, rows), &vcache);
    ml::Matrix dvalues(batch, 1);
    for (std::size_t b = 0; b < batch; ++b) {
      const double target = buffer.returns[rows[b]];
      dvalues.at(b, 0) = 2.0 * (values.at(b, 0) - target) / static_cast<double>(batch);
    }
    ml::Gradients vgrads = value_.make_gradients();
    value_.backward(vcache, dvalues, vgrads);
    value_opt_.step(value_, vgrads);
  }
}

std::vector<IterationStats> PpoTrainer::train(
    const std::function<void(const IterationStats&)>& on_iteration) {
  std::vector<IterationStats> stats;
  for (int i = 0; i < config_.iterations; ++i) {
    stats.push_back(iterate());
    if (on_iteration) on_iteration(stats.back());
  }
  return stats;
}

}  // namespace autophase::rl
