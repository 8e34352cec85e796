#include "passes/pass.hpp"
#include "search/evaluator.hpp"

namespace autophase::search {

std::vector<int> random_sequence(Rng& rng, int length) {
  std::vector<int> seq(static_cast<std::size_t>(length));
  for (int& p : seq) p = static_cast<int>(rng.uniform_int(0, passes::kNumPasses - 1));
  return seq;
}

namespace {

/// Candidates per parallel batch. The candidate stream itself is generated
/// serially from the budget's RNG, so chunking only affects how many
/// in-flight evaluations the pool can overlap, never which candidates run.
constexpr std::size_t kBatchChunk = 32;

}  // namespace

SearchResult random_search(const ir::Module& program, const SearchBudget& budget) {
  Evaluator eval(program, budget);
  Rng rng(budget.seed);
  eval.evaluate({});  // -O0 reference
  while (!eval.exhausted()) {
    const std::size_t chunk = std::min(kBatchChunk, eval.budget_remaining());
    std::vector<std::vector<int>> candidates;
    candidates.reserve(chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      candidates.push_back(random_sequence(rng, kSequenceLength));
    }
    eval.evaluate_batch(candidates);
  }
  return eval.result();
}

SearchResult greedy_search(const ir::Module& program, const SearchBudget& budget) {
  Evaluator eval(program, budget);
  std::vector<int> current;
  std::uint64_t current_cycles = eval.evaluate(current);

  // Insert the best (pass, position) pair until nothing improves. This is
  // the algorithm the paper attributes to Huang et al. 2013 and shows to be
  // easily trapped: each insertion is judged by its *immediate* speedup, so
  // enabling passes with zero standalone gain are never chosen.
  while (static_cast<int>(current.size()) < kSequenceLength && !eval.exhausted()) {
    // All (pass, position) insertions of a round are independent: enumerate
    // them up front and evaluate chunk by chunk in parallel. The winner is
    // chosen in enumeration order (first-wins on ties), matching the serial
    // scan.
    std::vector<std::vector<int>> candidates;
    candidates.reserve(static_cast<std::size_t>(passes::kNumPasses) * (current.size() + 1));
    for (int pass = 0; pass < passes::kNumPasses; ++pass) {
      for (std::size_t pos = 0; pos <= current.size(); ++pos) {
        std::vector<int> candidate = current;
        candidate.insert(candidate.begin() + static_cast<std::ptrdiff_t>(pos), pass);
        candidates.push_back(std::move(candidate));
      }
    }
    std::uint64_t best_cycles = current_cycles;
    std::vector<int> best_candidate;
    for (std::size_t offset = 0; offset < candidates.size() && !eval.exhausted();) {
      const std::size_t chunk = std::min(kBatchChunk, candidates.size() - offset);
      const auto cycles = eval.evaluate_batch(
          std::span<const std::vector<int>>(candidates).subspan(offset, chunk));
      for (std::size_t i = 0; i < cycles.size(); ++i) {
        if (cycles[i] < best_cycles) {
          best_cycles = cycles[i];
          best_candidate = candidates[offset + i];
        }
      }
      if (cycles.empty()) break;
      // Advance by what was actually evaluated: the budget cap may truncate
      // a chunk while cache hits keep the budget open, and those skipped
      // candidates must be retried, not silently dropped.
      offset += cycles.size();
    }
    if (best_candidate.empty()) break;  // local optimum
    current = std::move(best_candidate);
    current_cycles = best_cycles;
  }
  return eval.result();
}

}  // namespace autophase::search
