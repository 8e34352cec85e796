#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/autophase.hpp"
#include "core/importance.hpp"
#include "passes/pass.hpp"
#include "progen/chstone_like.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace autophase::core {
namespace {

/// FNV-1a over the bits of every importance, in row order, then every
/// held-out accuracy: pins the collected tuples through the forests.
std::uint64_t importance_digest(const ImportanceResult& result) {
  std::string bytes;
  const auto put = [&bytes](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(bits >> (8 * i)));
  };
  for (const auto* matrix : {&result.feature_importance, &result.pass_importance}) {
    for (const auto& row : *matrix) {
      for (const double v : row) put(v);
    }
  }
  for (const double v : result.forest_accuracy) put(v);
  return fnv1a(bytes);
}

TEST(Facade, O3BeatsO0) {
  auto m = progen::build_chstone_like("aes");
  EXPECT_LT(o3_cycles(*m), o0_cycles(*m));
}

TEST(Facade, SequenceEvaluationMatchesPipelines) {
  auto m = progen::build_chstone_like("sha");
  EXPECT_EQ(cycles_with_sequence(*m, {}), o0_cycles(*m));
}

TEST(Facade, OptimizeProgramEndToEnd) {
  auto m = progen::build_chstone_like("sha");
  AutoPhaseOptions opt;
  opt.ppo.iterations = 3;
  opt.ppo.steps_per_iteration = 90;
  const AutoPhaseResult r = optimize_program(*m, opt);
  EXPECT_GT(r.o0_cycles, 0u);
  EXPECT_LE(r.best_cycles, r.o0_cycles);
  EXPECT_EQ(r.pass_names.size(), r.best_sequence.size());
  EXPECT_NE(r.rtl.find("module"), std::string::npos);
  // Reported best must be reproducible from the sequence.
  EXPECT_EQ(cycles_with_sequence(*m, r.best_sequence), r.best_cycles);
}

TEST(Importance, ProducesNormalisedRowsAndFiltering) {
  ImportanceConfig cfg;
  cfg.num_programs = 4;
  cfg.target_samples = 1500;
  cfg.forest.num_trees = 10;
  cfg.seed = 3;
  const ImportanceResult result = run_importance_analysis(cfg);
  ASSERT_EQ(result.feature_importance.size(), 45u);
  ASSERT_EQ(result.pass_importance.size(), 45u);
  EXPECT_EQ(result.total_samples, 1500u);
  // Generated before the collector reused a no-op pass's measurement and
  // feature row; reusing them must not move a single bit.
  EXPECT_EQ(importance_digest(result), 0xc7e1a704b4b206b6ULL)
      << strf("0x%016llxULL", static_cast<unsigned long long>(importance_digest(result)));

  int informative_rows = 0;
  for (const auto& row : result.feature_importance) {
    double sum = 0;
    for (const double v : row) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    if (sum > 0) {
      EXPECT_NEAR(sum, 1.0, 1e-6);
      ++informative_rows;
    }
  }
  EXPECT_GT(informative_rows, 5);  // several passes have learnable effects

  const FilteredSpaces spaces = filter_spaces(result, 20, 12);
  EXPECT_EQ(spaces.features.size(), 20u);
  EXPECT_EQ(spaces.actions.size(), 12u);
  for (const int f : spaces.features) {
    EXPECT_GE(f, 0);
    EXPECT_LT(f, 56);
  }
  for (const int a : spaces.actions) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 45);
  }
  // The filtered action set should contain at least a few of the passes the
  // paper names as impactful.
  const auto& reg = passes::PassRegistry::instance();
  int named = 0;
  for (const char* name : {"-mem2reg", "-sroa", "-loop-rotate", "-instcombine", "-simplifycfg",
                           "-gvn", "-early-cse", "-loop-unroll", "-scalarrepl-ssa", "-adce",
                           "-dse", "-scalarrepl", "-loop-reduce", "-loop-deletion",
                           "-reassociate", "-partial-inliner"}) {
    const int idx = reg.index_of(name);
    for (const int a : spaces.actions) {
      if (a == idx) ++named;
    }
  }
  EXPECT_GE(named, 3);
}

}  // namespace
}  // namespace autophase::core
