// Reproduces Fig. 9: one-shot generalisation to the nine benchmarks after
// training on random programs. Black-box algorithms (Genetic, OpenTuner,
// Greedy) pre-compute ONE pass sequence minimising aggregate cycles on the
// random corpus and apply it blindly (1 sample per new program); the RL
// agents run greedy inference with their trained policies (also 1 sample).
// Expected shape: predetermined sequences overfit the corpus (Genetic worst),
// RL inference is modestly positive; every algorithm uses 1 sample/program.
#include <functional>

#include <algorithm>

#include "bench/bench_util.hpp"
#include "core/autophase.hpp"
#include "core/importance.hpp"
#include "ir/printer.hpp"
#include "rl/ppo.hpp"
#include "runtime/eval_service.hpp"
#include "search/search.hpp"

namespace {

using namespace autophase;

/// Mean cycles of one candidate sequence across the training corpus.
class AggregateEvaluator {
 public:
  AggregateEvaluator(const std::vector<const ir::Module*>& corpus)
      : corpus_(corpus) {
    for (const ir::Module* p : corpus_) fingerprints_.push_back(ir::module_fingerprint(*p));
  }

  double evaluate(const std::vector<int>& seq) {
    double total = 0;
    for (std::size_t i = 0; i < corpus_.size(); ++i) {
      total += static_cast<double>(service_.evaluate_sequence(*corpus_[i], fingerprints_[i], seq));
    }
    if (total < best_total_) {
      best_total_ = total;
      best_ = seq;
    }
    return total;
  }
  [[nodiscard]] const std::vector<int>& best() const noexcept { return best_; }

 private:
  const std::vector<const ir::Module*>& corpus_;
  std::vector<std::uint64_t> fingerprints_;
  runtime::EvalService service_;
  double best_total_ = 1e300;
  std::vector<int> best_;
};

std::vector<int> corpus_genetic(AggregateEvaluator& eval, int generations, Rng rng) {
  constexpr int kPop = 12;
  constexpr int kLen = 45;
  std::vector<std::vector<int>> pop;
  std::vector<double> fit;
  for (int i = 0; i < kPop; ++i) {
    pop.push_back(search::random_sequence(rng, kLen));
    fit.push_back(eval.evaluate(pop.back()));
  }
  for (int g = 0; g < generations; ++g) {
    auto select = [&]() -> const std::vector<int>& {
      std::size_t a = static_cast<std::size_t>(rng.uniform_int(0, kPop - 1));
      std::size_t b = static_cast<std::size_t>(rng.uniform_int(0, kPop - 1));
      return fit[a] < fit[b] ? pop[a] : pop[b];
    };
    std::vector<std::vector<int>> next;
    std::vector<double> next_fit;
    const std::size_t elite = static_cast<std::size_t>(
        std::min_element(fit.begin(), fit.end()) - fit.begin());
    next.push_back(pop[elite]);
    next_fit.push_back(fit[elite]);
    while (static_cast<int>(next.size()) < kPop) {
      std::vector<int> child = select();
      const auto& other = select();
      const auto cut = static_cast<std::size_t>(rng.uniform_int(0, kLen - 1));
      for (std::size_t i = cut; i < child.size(); ++i) child[i] = other[i];
      for (int& gene : child) {
        if (rng.chance(0.05)) gene = static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1));
      }
      next_fit.push_back(eval.evaluate(child));
      next.push_back(std::move(child));
    }
    pop = std::move(next);
    fit = std::move(next_fit);
  }
  return eval.best();
}

std::vector<int> corpus_greedy(AggregateEvaluator& eval, int max_rounds) {
  std::vector<int> current;
  double current_fit = eval.evaluate(current);
  for (int round = 0; round < max_rounds; ++round) {
    double best_fit = current_fit;
    std::vector<int> best_candidate;
    for (int pass = 0; pass < passes::kNumPasses; ++pass) {
      for (std::size_t pos = 0; pos <= current.size(); pos += (current.size() / 4 + 1)) {
        std::vector<int> cand = current;
        cand.insert(cand.begin() + static_cast<std::ptrdiff_t>(pos), pass);
        const double f = eval.evaluate(cand);
        if (f < best_fit) {
          best_fit = f;
          best_candidate = cand;
        }
      }
    }
    if (best_candidate.empty()) break;
    current = std::move(best_candidate);
    current_fit = best_fit;
  }
  return eval.best();
}

std::vector<int> corpus_random_ensemble(AggregateEvaluator& eval, int rounds, Rng rng) {
  // OpenTuner stand-in at corpus scale: bandit over random restarts and
  // mutations of the incumbent.
  std::vector<int> incumbent = search::random_sequence(rng, 45);
  eval.evaluate(incumbent);
  for (int i = 0; i < rounds; ++i) {
    std::vector<int> cand = rng.chance(0.4) ? search::random_sequence(rng, 45) : eval.best();
    for (int& gene : cand) {
      if (rng.chance(0.1)) gene = static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1));
    }
    eval.evaluate(cand);
  }
  return eval.best();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::size_t corpus_size =
      args.programs > 0 ? static_cast<std::size_t>(args.programs) : (args.full ? 100 : 10);
  const auto corpus = bench::random_corpus(corpus_size, args.seed);
  const auto programs = bench::as_pointers(corpus);
  std::fprintf(stderr, "[fig9] corpus of %zu random programs ready\n", corpus_size);

  // --- Black-box predetermined sequences (trained on the corpus) ---
  const int search_scale = args.full ? 5 : 1;
  std::vector<std::pair<std::string, std::vector<int>>> predetermined;
  {
    AggregateEvaluator eval(programs);
    predetermined.emplace_back("Genetic-DEAP",
                               corpus_genetic(eval, 6 * search_scale, Rng(args.seed)));
  }
  std::fprintf(stderr, "[fig9] genetic predetermined sequence ready\n");
  {
    AggregateEvaluator eval(programs);
    predetermined.emplace_back("OpenTuner",
                               corpus_random_ensemble(eval, 60 * search_scale, Rng(args.seed + 1)));
  }
  {
    AggregateEvaluator eval(programs);
    predetermined.emplace_back("Greedy", corpus_greedy(eval, 4 * search_scale));
  }
  std::fprintf(stderr, "[fig9] predetermined sequences ready\n");

  // --- RL agents trained on the corpus (filtered spaces, both norms) ---
  core::ImportanceConfig imp;
  imp.seed = args.seed;
  imp.num_programs = args.full ? 50 : 8;
  imp.target_samples = args.full ? 60000 : 5000;
  const auto spaces = core::filter_spaces(core::run_importance_analysis(imp));

  auto make_env_config = [&](rl::NormalizationMode norm) {
    rl::EnvConfig cfg;
    cfg.observation = rl::ObservationMode::kBoth;
    cfg.normalization = norm;
    cfg.log_reward = true;
    cfg.feature_subset = spaces.features;
    cfg.action_subset = spaces.actions;
    return cfg;
  };
  rl::PpoConfig ppo;
  ppo.iterations = args.full ? 60 : 10;
  ppo.steps_per_iteration = args.full ? 1000 : 270;
  ppo.seed = args.seed;

  std::vector<std::pair<std::string, std::unique_ptr<rl::PpoTrainer>>> agents;
  std::vector<std::unique_ptr<rl::PhaseOrderEnv>> train_envs;
  for (const auto& [name, norm] :
       std::vector<std::pair<std::string, rl::NormalizationMode>>{
           {"RL-filtered-norm1", rl::NormalizationMode::kLog},
           {"RL-filtered-norm2", rl::NormalizationMode::kInstCountRatio}}) {
    train_envs.push_back(std::make_unique<rl::PhaseOrderEnv>(programs, make_env_config(norm)));
    agents.emplace_back(name, std::make_unique<rl::PpoTrainer>(*train_envs.back(), ppo));
    agents.back().second->train();
    std::fprintf(stderr, "[fig9] trained %s\n", name.c_str());
  }

  // --- One-shot evaluation on the nine unseen benchmarks ---
  const auto& names = progen::chstone_benchmark_names();
  TextTable table({"algorithm", "improvement over -O3 (mean)", "samples/program"});
  std::printf("Fig. 9: deep-RL generalisation, 1 sample per new program (%s mode)\n",
              args.full ? "full" : "fast");

  std::vector<std::pair<std::string, std::function<std::vector<int>(const ir::Module&)>>> rows;
  for (auto& [name, seq] : predetermined) {
    std::vector<int> fixed = seq;
    rows.emplace_back(name, [fixed](const ir::Module&) { return fixed; });
  }
  for (std::size_t a = 0; a < agents.size(); ++a) {
    rl::PpoTrainer* trainer = agents[a].second.get();
    const auto cfg = make_env_config(a == 0 ? rl::NormalizationMode::kLog
                                            : rl::NormalizationMode::kInstCountRatio);
    rows.emplace_back(agents[a].first, [trainer, cfg](const ir::Module& program) {
      // Inference: no simulator calls; the applied sequence is measured once
      // by the caller (that single call is the "1 sample" of Fig. 9).
      rl::PhaseOrderEnv env({&program}, cfg);
      env.set_inference_mode(true);
      std::vector<double> obs = env.reset();
      std::vector<int> applied;
      for (int step = 0; step < 45; ++step) {
        const auto action = trainer->act_greedy(obs);
        applied.push_back(cfg.action_subset.empty()
                              ? static_cast<int>(action[0])
                              : cfg.action_subset[action[0]]);
        const rl::StepResult sr = env.step(action);
        obs = sr.observation;
        if (sr.done) break;
      }
      return applied;
    });
  }

  for (auto& [name, sequence_for] : rows) {
    double sum = 0;
    for (const auto& bench_name : names) {
      auto program = progen::build_chstone_like(bench_name);
      const std::uint64_t o3 = core::o3_cycles(*program);
      const std::uint64_t cycles =
          core::cycles_with_sequence(*program, sequence_for(*program));
      sum += bench::improvement(o3, cycles);
    }
    table.add_row({name, bench::pct(sum / static_cast<double>(names.size())), "1"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper values: Genetic -24%%, OpenTuner -2%%, Greedy +2%%, RL-filtered-norm1 +3%%,\n"
              "RL-filtered-norm2 +4%% — predetermined sequences overfit; RL generalises.\n");
  return 0;
}
