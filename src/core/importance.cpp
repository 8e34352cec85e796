#include "core/importance.hpp"

#include <algorithm>
#include <numeric>

#include "features/features.hpp"
#include "ir/clone.hpp"
#include "ir/printer.hpp"
#include "passes/pass.hpp"
#include "progen/random_program.hpp"
#include "rl/env.hpp"
#include "runtime/eval_service.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace autophase::core {

namespace {

struct Tuple {
  std::vector<double> features;   // 56
  std::vector<double> histogram;  // 45
  int action = 0;
  int improved = 0;
};

std::vector<Tuple> collect_tuples(const ImportanceConfig& config) {
  std::vector<Tuple> tuples;
  Rng rng(config.seed);

  std::vector<std::unique_ptr<ir::Module>> programs;
  for (int p = 0; p < config.num_programs; ++p) {
    programs.push_back(progen::generate_filtered_program(config.seed * 1000003 +
                                                         static_cast<std::uint64_t>(p)));
  }

  runtime::EvalService service;
  std::size_t program_index = 0;
  while (tuples.size() < static_cast<std::size_t>(config.target_samples)) {
    const ir::Module& program = *programs[program_index];
    program_index = (program_index + 1) % programs.size();

    auto working = ir::clone_module(program);
    std::uint64_t fingerprint = ir::module_fingerprint(*working);
    std::uint64_t prev = service.measure(*working, fingerprint).cycles;
    auto fv = features::extract_features(*working);
    std::vector<double> histogram(static_cast<std::size_t>(passes::kNumPasses), 0.0);

    for (int step = 0; step < config.episode_length; ++step) {
      // High-exploration policy: uniform over the pass space (the
      // infinite-entropy limit the paper approaches by cranking up PPO's
      // exploration bonus).
      const int action = static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1));
      const bool changed = passes::apply_pass(*working, action);
      // A pass that changed nothing keeps the previous measurement and
      // feature row.
      std::uint64_t cycles = prev;
      if (changed) {
        fingerprint = ir::module_fingerprint(*working);
        cycles = service.measure(*working, fingerprint).cycles;
      } else {
        rl::check_unchanged(*working, fingerprint);
      }

      Tuple t;
      t.features.reserve(features::kNumFeatures);
      for (const auto v : fv) t.features.push_back(static_cast<double>(v));
      t.histogram = histogram;
      t.action = action;
      t.improved = cycles < prev ? 1 : 0;
      tuples.push_back(std::move(t));

      histogram[static_cast<std::size_t>(action)] += 1.0;
      prev = cycles;
      if (changed) fv = features::extract_features(*working);
      if (tuples.size() >= static_cast<std::size_t>(config.target_samples)) break;
    }
  }
  return tuples;
}

}  // namespace

ImportanceResult run_importance_analysis(const ImportanceConfig& config) {
  const auto tuples = collect_tuples(config);

  ImportanceResult result;
  result.total_samples = tuples.size();
  result.feature_importance.assign(
      static_cast<std::size_t>(passes::kNumPasses),
      std::vector<double>(static_cast<std::size_t>(features::kNumFeatures), 0.0));
  result.pass_importance.assign(
      static_cast<std::size_t>(passes::kNumPasses),
      std::vector<double>(static_cast<std::size_t>(passes::kNumPasses), 0.0));
  result.forest_accuracy.assign(static_cast<std::size_t>(passes::kNumPasses), 0.0);

  for (int pass = 0; pass < passes::kNumPasses; ++pass) {
    std::vector<std::vector<double>> x_features;
    std::vector<std::vector<double>> x_history;
    std::vector<int> y;
    for (const Tuple& t : tuples) {
      if (t.action != pass) continue;
      x_features.push_back(t.features);
      x_history.push_back(t.histogram);
      y.push_back(t.improved);
    }
    // Degenerate labels make importances meaningless; leave the row zero.
    const int positives = std::accumulate(y.begin(), y.end(), 0);
    if (y.size() < 20 || positives == 0 || positives == static_cast<int>(y.size())) {
      continue;
    }

    ml::ForestConfig fc = config.forest;
    fc.seed = config.seed * 31 + static_cast<std::uint64_t>(pass);

    // Train/test split for the sanity accuracy (last 25% held out).
    const std::size_t train_n = x_features.size() * 3 / 4;
    {
      ml::RandomForest forest(fc);
      forest.fit({x_features.begin(), x_features.begin() + static_cast<std::ptrdiff_t>(train_n)},
                 {y.begin(), y.begin() + static_cast<std::ptrdiff_t>(train_n)});
      result.forest_accuracy[static_cast<std::size_t>(pass)] = forest.accuracy(
          {x_features.begin() + static_cast<std::ptrdiff_t>(train_n), x_features.end()},
          {y.begin() + static_cast<std::ptrdiff_t>(train_n), y.end()});
    }
    {
      ml::RandomForest forest(fc);
      forest.fit(x_features, y);
      result.feature_importance[static_cast<std::size_t>(pass)] = forest.feature_importances();
    }
    {
      ml::RandomForest forest(fc);
      forest.fit(x_history, y);
      result.pass_importance[static_cast<std::size_t>(pass)] = forest.feature_importances();
    }
  }
  return result;
}

FilteredSpaces filter_spaces(const ImportanceResult& importance, int top_features,
                             int top_actions) {
  FilteredSpaces out;

  std::vector<double> feature_mass(static_cast<std::size_t>(features::kNumFeatures), 0.0);
  for (const auto& row : importance.feature_importance) {
    for (std::size_t f = 0; f < row.size(); ++f) feature_mass[f] += row[f];
  }
  std::vector<int> feature_order(feature_mass.size());
  std::iota(feature_order.begin(), feature_order.end(), 0);
  std::stable_sort(feature_order.begin(), feature_order.end(), [&](int a, int b) {
    return feature_mass[static_cast<std::size_t>(a)] > feature_mass[static_cast<std::size_t>(b)];
  });
  feature_order.resize(std::min<std::size_t>(feature_order.size(),
                                             static_cast<std::size_t>(top_features)));
  out.features = feature_order;
  std::sort(out.features.begin(), out.features.end());

  // Pass importance: how much does having applied pass j matter anywhere
  // (column mass of Fig. 6) plus how often applying j itself helps (row
  // presence).
  std::vector<double> action_mass(static_cast<std::size_t>(passes::kNumPasses), 0.0);
  for (const auto& row : importance.pass_importance) {
    for (std::size_t j = 0; j < row.size(); ++j) action_mass[j] += row[j];
  }
  for (std::size_t p = 0; p < importance.feature_importance.size(); ++p) {
    double row_sum = 0.0;
    for (const double v : importance.feature_importance[p]) row_sum += v;
    if (row_sum > 0.0) action_mass[p] += 0.5;  // the pass itself is learnable
  }
  std::vector<int> action_order(action_mass.size());
  std::iota(action_order.begin(), action_order.end(), 0);
  std::stable_sort(action_order.begin(), action_order.end(), [&](int a, int b) {
    return action_mass[static_cast<std::size_t>(a)] > action_mass[static_cast<std::size_t>(b)];
  });
  action_order.resize(std::min<std::size_t>(action_order.size(),
                                            static_cast<std::size_t>(top_actions)));
  out.actions = action_order;
  std::sort(out.actions.begin(), out.actions.end());
  return out;
}

}  // namespace autophase::core
