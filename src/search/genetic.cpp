#include <algorithm>

#include "passes/pass.hpp"
#include "search/evaluator.hpp"

namespace autophase::search {

GeneticStepper::GeneticStepper(GeneticConfig config, int sequence_length, Rng rng)
    : config_(config), length_(sequence_length), rng_(rng) {}

const std::vector<int>& GeneticStepper::tournament_select() const {
  std::size_t best = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(population_.size()) - 1));
  for (int i = 1; i < config_.tournament; ++i) {
    const std::size_t cand = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(population_.size()) - 1));
    if (fitness_[cand] < fitness_[best]) best = cand;
  }
  return population_[best];
}

std::vector<int> GeneticStepper::crossover(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> child = a;
  switch (config_.crossover_kind) {
    case 0: {  // one-point
      const auto cut = static_cast<std::size_t>(rng_.uniform_int(0, length_ - 1));
      for (std::size_t i = cut; i < child.size(); ++i) child[i] = b[i];
      break;
    }
    case 1: {  // two-point
      auto c1 = static_cast<std::size_t>(rng_.uniform_int(0, length_ - 1));
      auto c2 = static_cast<std::size_t>(rng_.uniform_int(0, length_ - 1));
      if (c1 > c2) std::swap(c1, c2);
      for (std::size_t i = c1; i <= c2; ++i) child[i] = b[i];
      break;
    }
    default: {  // uniform
      for (std::size_t i = 0; i < child.size(); ++i) {
        if (rng_.chance(0.5)) child[i] = b[i];
      }
      break;
    }
  }
  return child;
}

void GeneticStepper::mutate(std::vector<int>& genome) {
  for (int& gene : genome) {
    if (rng_.chance(config_.mutation_rate)) {
      gene = static_cast<int>(rng_.uniform_int(0, passes::kNumPasses - 1));
    }
  }
}

bool GeneticStepper::step(Evaluator& eval) {
  const std::uint64_t best_before = eval.best_cycles();
  if (!initialised_) {
    initialised_ = true;
    population_.clear();
    fitness_.clear();
    std::vector<std::vector<int>> seeds;
    seeds.reserve(static_cast<std::size_t>(config_.population));
    for (int i = 0; i < config_.population; ++i) {
      seeds.push_back(random_sequence(rng_, length_));
    }
    // Budget-capped parallel batch; a truncated tail is dropped, just as the
    // serial path would never have evaluated it.
    const auto fitness = eval.evaluate_batch(seeds);
    for (std::size_t i = 0; i < fitness.size(); ++i) {
      population_.push_back(std::move(seeds[i]));
      fitness_.push_back(fitness[i]);
    }
    return eval.best_cycles() < best_before;
  }
  if (population_.empty()) return false;

  // Elitism: keep the best individual (fitness already known — it must not
  // occupy a slot of the evaluation budget), refill the rest. Selection
  // draws on the previous generation only, so the whole brood can be bred
  // first and evaluated as one parallel batch.
  const std::size_t elite = static_cast<std::size_t>(
      std::min_element(fitness_.begin(), fitness_.end()) - fitness_.begin());
  std::vector<std::vector<int>> brood;
  brood.reserve(static_cast<std::size_t>(config_.population) - 1);
  for (int i = 1; i < config_.population; ++i) {
    std::vector<int> child = rng_.chance(config_.crossover_rate)
                                 ? crossover(tournament_select(), tournament_select())
                                 : tournament_select();
    mutate(child);
    brood.push_back(std::move(child));
  }
  const auto brood_fitness = eval.evaluate_batch(brood);
  std::vector<std::vector<int>> next{population_[elite]};
  std::vector<std::uint64_t> next_fitness{fitness_[elite]};
  for (std::size_t i = 0; i < brood_fitness.size(); ++i) {
    next.push_back(std::move(brood[i]));
    next_fitness.push_back(brood_fitness[i]);
  }
  population_ = std::move(next);
  fitness_ = std::move(next_fitness);
  return eval.best_cycles() < best_before;
}

SearchResult genetic_search(const ir::Module& program, const SearchBudget& budget,
                            const GeneticConfig& config) {
  Evaluator eval(program, budget);
  eval.evaluate({});
  GeneticStepper stepper(config, kSequenceLength, Rng(budget.seed));
  while (!eval.exhausted()) stepper.step(eval);
  return eval.result();
}

}  // namespace autophase::search
