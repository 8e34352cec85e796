// Black-box phase-ordering baselines from the paper's evaluation (§6.1):
// random search, the greedy insertion algorithm of Huang et al. 2013,
// a DEAP-style genetic algorithm, particle swarm optimisation, and an
// OpenTuner-style AUC-bandit ensemble over {GA, PSO} x 3 crossover settings.
// All report the paper's "Samples / Program" metric via the shared
// runtime::EvalService (cache hits are free, exactly like re-querying LegUp
// on an unchanged design).
#pragma once

#include <cstdint>
#include <vector>

#include "rl/env.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace autophase::search {

struct SearchResult {
  std::vector<int> best_sequence;  // Table-1 pass indices
  std::uint64_t best_cycles = ~0ull;
  std::size_t samples = 0;
};

/// Length of every searched pass sequence (the paper's pass length).
inline constexpr int kSequenceLength = 45;

struct SearchBudget {
  std::size_t max_samples = 1000;
  std::uint64_t seed = 1;
  /// Worker pool for batched candidate evaluation; nullptr (the default)
  /// evaluates serially. Candidate generation and best-result selection are
  /// thread-count agnostic, so results are identical either way. Not owned.
  ThreadPool* pool = nullptr;
};

/// Uniform random 45-pass sequences ("random" bar of Fig. 7).
SearchResult random_search(const ir::Module& program, const SearchBudget& budget);

/// One uniformly random pass sequence (building block shared by the
/// stochastic searches and corpus-level tuning).
std::vector<int> random_sequence(Rng& rng, int length);

/// Greedy insertion (Huang et al. 2013): repeatedly insert the pass at the
/// position that maximises the immediate speedup; stop at a local optimum or
/// when the sample budget is exhausted.
SearchResult greedy_search(const ir::Module& program, const SearchBudget& budget);

struct GeneticConfig {
  int population = 20;
  double crossover_rate = 0.9;
  double mutation_rate = 0.05;
  int tournament = 3;
  /// 0 = one-point, 1 = two-point, 2 = uniform (the "crossover settings").
  int crossover_kind = 0;
};

/// DEAP-style genetic algorithm ("Genetic-DEAP" bar of Fig. 7).
SearchResult genetic_search(const ir::Module& program, const SearchBudget& budget,
                            const GeneticConfig& config = {});

struct PsoConfig {
  int particles = 16;
  double inertia = 0.72;
  double cognitive = 1.5;
  double social = 1.5;
  /// Like OpenTuner's PSO variants: fraction of dimensions crossed over with
  /// the global best each step.
  double crossover_fraction = 0.0;
};

/// Particle swarm optimisation over integer pass vectors.
SearchResult pso_search(const ir::Module& program, const SearchBudget& budget,
                        const PsoConfig& config = {});

/// OpenTuner-style meta-search: an AUC bandit chooses per round among six
/// sub-techniques (GA and PSO, each with three crossover settings) sharing
/// one result pool ("OpenTuner runs an ensemble of six algorithms", §6.1).
SearchResult opentuner_search(const ir::Module& program, const SearchBudget& budget);

}  // namespace autophase::search
