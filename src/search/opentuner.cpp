#include <cmath>
#include <functional>
#include <memory>

#include "search/evaluator.hpp"

namespace autophase::search {

namespace {

/// One arm of the AUC bandit: a sub-technique plus its reward history.
struct Arm {
  std::function<bool(Evaluator&)> step;
  std::vector<int> history;  // 1 = improved the global best
  int uses = 0;

  /// OpenTuner's AUC credit: recent improvements weigh more (area under the
  /// cumulative-improvement curve over a sliding window).
  [[nodiscard]] double auc() const {
    constexpr std::size_t kWindow = 16;
    const std::size_t n = std::min(history.size(), kWindow);
    if (n == 0) return 0.0;
    double area = 0.0;
    double weight = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = static_cast<double>(i + 1);
      area += w * history[history.size() - n + i];
      weight += w;
    }
    return area / weight;
  }
};

}  // namespace

SearchResult opentuner_search(const ir::Module& program, const SearchBudget& budget) {
  Evaluator eval(program, budget);
  eval.evaluate({});
  Rng rng(budget.seed);

  // The paper: "OpenTuner runs an ensemble of six algorithms ... particle
  // swarm optimization and GA, each with three different crossover settings".
  std::vector<std::unique_ptr<GeneticStepper>> gas;
  std::vector<std::unique_ptr<PsoStepper>> psos;
  std::vector<Arm> arms;
  for (int kind = 0; kind < 3; ++kind) {
    GeneticConfig gc;
    gc.crossover_kind = kind;
    gas.push_back(std::make_unique<GeneticStepper>(gc, kSequenceLength, rng.split()));
    GeneticStepper* ga = gas.back().get();
    arms.push_back(Arm{[ga](Evaluator& e) { return ga->step(e); }, {}, 0});
  }
  const double crossover_settings[3] = {0.0, 0.1, 0.3};
  for (int kind = 0; kind < 3; ++kind) {
    PsoConfig pc;
    pc.crossover_fraction = crossover_settings[kind];
    psos.push_back(std::make_unique<PsoStepper>(pc, kSequenceLength, rng.split()));
    PsoStepper* pso = psos.back().get();
    arms.push_back(Arm{[pso](Evaluator& e) { return pso->step(e); }, {}, 0});
  }

  int round = 0;
  while (!eval.exhausted()) {
    ++round;
    // AUC bandit: exploitation (AUC score) + UCB exploration bonus.
    std::size_t chosen = 0;
    double best_score = -1e300;
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const double exploration =
          arms[a].uses == 0
              ? 1e6  // try every arm once
              : std::sqrt(2.0 * std::log(static_cast<double>(round)) / arms[a].uses);
      const double score = arms[a].auc() + exploration;
      if (score > best_score) {
        best_score = score;
        chosen = a;
      }
    }
    Arm& arm = arms[chosen];
    const bool improved = arm.step(eval);
    arm.history.push_back(improved ? 1 : 0);
    ++arm.uses;
  }
  return eval.result();
}

}  // namespace autophase::search
