#include <algorithm>
#include <cmath>

#include "passes/pass.hpp"
#include "search/evaluator.hpp"

namespace autophase::search {

namespace {

std::vector<int> discretise(const std::vector<double>& position) {
  std::vector<int> seq(position.size());
  for (std::size_t i = 0; i < position.size(); ++i) {
    seq[i] = std::clamp(static_cast<int>(position[i]), 0, passes::kNumPasses - 1);
  }
  return seq;
}

}  // namespace

PsoStepper::PsoStepper(PsoConfig config, int sequence_length, Rng rng)
    : config_(config), length_(sequence_length), rng_(rng) {}

bool PsoStepper::step(Evaluator& eval) {
  const std::uint64_t best_before = eval.best_cycles();
  const double hi = static_cast<double>(passes::kNumPasses) - 1e-3;

  if (!initialised_) {
    initialised_ = true;
    position_.resize(static_cast<std::size_t>(config_.particles));
    velocity_.resize(static_cast<std::size_t>(config_.particles));
    personal_best_.resize(static_cast<std::size_t>(config_.particles));
    personal_best_fitness_.assign(static_cast<std::size_t>(config_.particles), ~0ull);
    std::vector<std::vector<int>> candidates;
    candidates.reserve(position_.size());
    for (int p = 0; p < config_.particles; ++p) {
      auto& x = position_[static_cast<std::size_t>(p)];
      auto& v = velocity_[static_cast<std::size_t>(p)];
      x.resize(static_cast<std::size_t>(length_));
      v.resize(static_cast<std::size_t>(length_));
      for (int i = 0; i < length_; ++i) {
        x[static_cast<std::size_t>(i)] = rng_.uniform(0.0, hi);
        v[static_cast<std::size_t>(i)] = rng_.uniform(-3.0, 3.0);
      }
      candidates.push_back(discretise(x));
    }
    const auto fitness = eval.evaluate_batch(candidates);
    // A budget-truncated batch leaves trailing particles unevaluated; drop
    // them entirely so later movement steps never touch an empty
    // personal_best_ entry.
    position_.resize(fitness.size());
    velocity_.resize(fitness.size());
    personal_best_.resize(fitness.size());
    personal_best_fitness_.resize(fitness.size());
    for (std::size_t p = 0; p < fitness.size(); ++p) {
      personal_best_[p] = position_[p];
      personal_best_fitness_[p] = fitness[p];
      if (fitness[p] < global_best_fitness_) {
        global_best_fitness_ = fitness[p];
        global_best_ = position_[p];
      }
    }
    return eval.best_cycles() < best_before;
  }
  if (position_.empty() || global_best_.empty()) return false;

  // Synchronous swarm update: every particle moves against the global best
  // as of the start of this iteration, then the whole swarm is evaluated as
  // one parallel batch and the bests are folded in by particle index — the
  // trajectory is therefore independent of evaluation order / thread count.
  const std::vector<double> gbest = global_best_;
  std::vector<std::vector<int>> candidates;
  candidates.reserve(position_.size());
  for (std::size_t p = 0; p < position_.size(); ++p) {
    auto& x = position_[p];
    auto& v = velocity_[p];
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double r1 = rng_.uniform();
      const double r2 = rng_.uniform();
      v[i] = config_.inertia * v[i] +
             config_.cognitive * r1 * (personal_best_[p][i] - x[i]) +
             config_.social * r2 * (gbest[i] - x[i]);
      v[i] = std::clamp(v[i], -8.0, 8.0);
      x[i] = std::clamp(x[i] + v[i], 0.0, hi);
      // OpenTuner-flavoured crossover setting: teleport a fraction of the
      // dimensions straight onto the global best.
      if (config_.crossover_fraction > 0.0 && rng_.chance(config_.crossover_fraction)) {
        x[i] = gbest[i];
      }
    }
    candidates.push_back(discretise(x));
  }
  const auto fitness = eval.evaluate_batch(candidates);
  for (std::size_t p = 0; p < fitness.size(); ++p) {
    if (fitness[p] < personal_best_fitness_[p]) {
      personal_best_fitness_[p] = fitness[p];
      personal_best_[p] = position_[p];
    }
    if (fitness[p] < global_best_fitness_) {
      global_best_fitness_ = fitness[p];
      global_best_ = position_[p];
    }
  }
  return eval.best_cycles() < best_before;
}

SearchResult pso_search(const ir::Module& program, const SearchBudget& budget,
                        const PsoConfig& config) {
  Evaluator eval(program, budget);
  eval.evaluate({});
  PsoStepper stepper(config, kSequenceLength, Rng(budget.seed));
  while (!eval.exhausted()) stepper.step(eval);
  return eval.result();
}

}  // namespace autophase::search
