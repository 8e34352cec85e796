#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "ml/distributions.hpp"
#include "ml/kernels.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/optimizer.hpp"
#include "ml/random_forest.hpp"

namespace autophase::ml {
namespace {

TEST(Matrix, MatmulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a.at(i, j) = v++;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) b.at(i, j) = v++;
  }
  const Matrix c = matmul(a, b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154);
}

TEST(Matrix, TransposedVariantsAgree) {
  Rng rng(3);
  const Matrix a = Matrix::randn(rng, 4, 5, 1.0);
  const Matrix b = Matrix::randn(rng, 4, 6, 1.0);
  // a^T @ b via matmul_tn should equal manual transpose multiply.
  const Matrix tn = matmul_tn(a, b);
  Matrix at(5, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 5; ++j) at.at(j, i) = a.at(i, j);
  }
  const Matrix expected = matmul(at, b);
  for (std::size_t i = 0; i < tn.rows(); ++i) {
    for (std::size_t j = 0; j < tn.cols(); ++j) {
      EXPECT_NEAR(tn.at(i, j), expected.at(i, j), 1e-12);
    }
  }

  // a @ c^T via matmul_nt equals the dot product of row i of a with row j
  // of c, summed over k in ascending order from 0.0, bit for bit. 11 rows
  // cross matmul_nt's 8-row tile; a carries zeros (including whole-column
  // and -0.0) and negatives.
  Matrix x = Matrix::randn(rng, 11, 7, 1.0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x.at(i, 2) = 0.0;
    x.at(i, (i + 3) % 7) = -std::abs(x.at(i, (i + 3) % 7));
  }
  x.at(4, 5) = -0.0;
  x.at(9, 0) = 0.0;
  const Matrix c = Matrix::randn(rng, 5, 7, 1.0);
  const auto dot_reference = [](const Matrix& p, const Matrix& q) {
    Matrix out(p.rows(), q.rows());
    for (std::size_t i = 0; i < p.rows(); ++i) {
      for (std::size_t j = 0; j < q.rows(); ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < p.cols(); ++k) acc += p.at(i, k) * q.at(j, k);
        out.at(i, j) = acc;
      }
    }
    return out;
  };
  EXPECT_EQ(matmul_nt(x, c).data(), dot_reference(x, c).data());

  // Every product is kept (no zero-skip): a zero times an infinite entry of
  // c still poisons the sum.
  Matrix inf_c = c;
  inf_c.at(1, 2) = std::numeric_limits<double>::infinity();
  const Matrix poisoned = matmul_nt(x, inf_c);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_TRUE(std::isnan(poisoned.at(i, 1))) << "row " << i;
    EXPECT_EQ(poisoned.at(i, 0), dot_reference(x, c).at(i, 0)) << "row " << i;
  }
}

/// Raw bit patterns, so -0.0 differs from 0.0 and NaNs compare equal to
/// themselves.
std::vector<std::uint64_t> bits_of(const Matrix& m) {
  std::vector<std::uint64_t> out;
  for (const double v : m.data()) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Gaussian entries with a quarter replaced by edge values: zeros of both
/// signs and subnormals always, infinities and NaN when `non_finite`.
Matrix edge_matrix(Rng& rng, std::size_t rows, std::size_t cols, bool non_finite) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double finite_edges[] = {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                                 -4.9e-320, 1e-300};
  const double non_finite_edges[] = {kInf, -kInf, std::numeric_limits<double>::quiet_NaN()};
  Matrix m = Matrix::randn(rng, rows, cols, 1.0);
  for (double& v : m.data()) {
    if (rng.uniform() >= 0.25) continue;
    if (non_finite && rng.uniform() < 0.3) {
      v = non_finite_edges[rng.uniform_int(0, 2)];
    } else {
      v = finite_edges[rng.uniform_int(0, 4)];
    }
  }
  return m;
}

// Every instruction set computes the definition, bit for bit, or a fleet of
// mixed CPUs would serve different answers: each element sums its products
// over k in ascending order from 0.0, skipping a zero of A in matmul and
// matmul_tn, and any NaN it ends with is the one quiet NaN. Row counts 1-17
// cross the 8-row tile threshold and the 4-row tile; column counts 7 and 45
// leave a tail after every vector and tile width.
TEST(MatrixIsa, EveryPathGivesTheDefinedBits) {
  using detail::Isa;
  std::printf("ml kernels on this host: %s\n", detail::isa_name(detail::active_isa()));
  const bool avx2 = detail::isa_supported(Isa::kAvx2);
  const auto reference = [](const Matrix& a, const Matrix& b, bool skip_zero) {
    Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < a.cols(); ++k) {
          if (skip_zero && a.at(i, k) == 0.0) continue;
          acc += a.at(i, k) * b.at(k, j);
        }
        out.at(i, j) = std::isnan(acc) ? std::numeric_limits<double>::quiet_NaN() : acc;
      }
    }
    return out;
  };
  const auto transpose = [](const Matrix& m) {
    Matrix t(m.cols(), m.rows());
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) t.at(j, i) = m.at(i, j);
    }
    return t;
  };
  // The baseline kernel against the definition, then AVX2 against the baseline.
  const auto check = [&](Matrix (*kernel)(const Matrix&, const Matrix&, Isa), const Matrix& x,
                         const Matrix& y, const Matrix& expected) {
    const std::vector<std::uint64_t> baseline = bits_of(kernel(x, y, Isa::kBaseline));
    EXPECT_EQ(baseline, bits_of(expected));
    if (avx2) EXPECT_EQ(bits_of(kernel(x, y, Isa::kAvx2)), baseline);
  };
  Rng rng(23);
  constexpr std::size_t kDepth = 11;
  for (const bool non_finite : {false, true}) {
    for (std::size_t rows = 1; rows <= 17; ++rows) {
      for (const std::size_t cols : {std::size_t{7}, std::size_t{45}}) {
        SCOPED_TRACE(testing::Message() << "rows " << rows << ", cols " << cols
                                        << (non_finite ? ", with inf and NaN" : ""));
        const Matrix a = edge_matrix(rng, rows, kDepth, non_finite);
        const Matrix b = edge_matrix(rng, kDepth, cols, non_finite);
        check(detail::matmul, a, b, reference(a, b, true));
        check(detail::matmul_tn, transpose(a), b, reference(a, b, true));
        check(detail::matmul_nt, a, transpose(b), reference(a, b, false));
      }
    }
  }
  if (!avx2) GTEST_SKIP() << "no AVX2 on this host or build: only the baseline kernels ran";
}

// On every instruction set and on both sides of the tile threshold, matmul
// and matmul_tn skip a zero of A against an infinite B, and matmul_nt keeps
// the product (0 * inf = NaN).
TEST(MatrixIsa, ZeroSkipOnEveryPath) {
  using detail::Isa;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Isa isa : {Isa::kBaseline, Isa::kAvx2}) {
    if (!detail::isa_supported(isa)) continue;
    for (const std::size_t rows : {std::size_t{1}, std::size_t{9}}) {
      SCOPED_TRACE(testing::Message() << detail::isa_name(isa) << ", rows " << rows);
      Matrix a(rows, 2);  // column 0 zero, column 1 one
      for (std::size_t i = 0; i < rows; ++i) a.at(i, 1) = 1.0;
      Matrix b(2, 9);  // row 0 infinite, row 1 two
      for (std::size_t j = 0; j < 9; ++j) {
        b.at(0, j) = kInf;
        b.at(1, j) = 2.0;
      }
      Matrix a_t(2, rows);
      for (std::size_t i = 0; i < rows; ++i) a_t.at(1, i) = 1.0;
      Matrix b_t(9, 2);
      for (std::size_t j = 0; j < 9; ++j) {
        b_t.at(j, 0) = kInf;
        b_t.at(j, 1) = 2.0;
      }
      const Matrix skipped = detail::matmul(a, b, isa);
      const Matrix skipped_tn = detail::matmul_tn(a_t, b, isa);
      const Matrix kept = detail::matmul_nt(a, b_t, isa);
      for (const double v : skipped.data()) EXPECT_EQ(v, 2.0);
      for (const double v : skipped_tn.data()) EXPECT_EQ(v, 2.0);
      for (const double v : kept.data()) EXPECT_TRUE(std::isnan(v));
    }
  }
}

TEST(Distributions, SoftmaxNormalised) {
  const double logits[4] = {1.0, 2.0, 3.0, 4.0};
  const auto p = softmax(logits, 4);
  double sum = 0;
  for (const double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[3], p[0]);
  EXPECT_NEAR(log_prob(logits, 4, 2), std::log(p[2]), 1e-12);
}

TEST(Distributions, LogProbGradSumsToZero) {
  const double logits[3] = {0.5, -1.0, 2.0};
  double grad[3];
  log_prob_grad(logits, 3, 1, grad);
  EXPECT_NEAR(grad[0] + grad[1] + grad[2], 0.0, 1e-12);
  EXPECT_GT(grad[1], 0.0);  // chosen index pushed up
}

TEST(Distributions, EntropyGradNumerical) {
  double logits[3] = {0.3, -0.7, 1.1};
  double grad[3];
  entropy_grad(logits, 3, grad);
  const double eps = 1e-6;
  for (int i = 0; i < 3; ++i) {
    logits[i] += eps;
    const double hp = entropy(logits, 3);
    logits[i] -= 2 * eps;
    const double hm = entropy(logits, 3);
    logits[i] += eps;
    EXPECT_NEAR(grad[i], (hp - hm) / (2 * eps), 1e-5);
  }
}

TEST(Distributions, SamplingFollowsProbabilities) {
  const double logits[2] = {0.0, 2.0};
  Rng rng(5);
  int count1 = 0;
  for (int i = 0; i < 5000; ++i) count1 += sample(logits, 2, rng) == 1 ? 1 : 0;
  const auto p = softmax(logits, 2);
  EXPECT_NEAR(count1 / 5000.0, p[1], 0.03);
}

TEST(Distributions, FactoredCategorical) {
  FactoredCategorical dist{3, 4};
  std::vector<double> logits(12, 0.0);
  logits[1] = 5.0;   // group 0 -> 1
  logits[4] = 5.0;   // group 1 -> 0
  logits[11] = 5.0;  // group 2 -> 3
  const auto choice = dist.argmax_all(logits.data());
  EXPECT_EQ(choice, (std::vector<std::size_t>{1, 0, 3}));
  EXPECT_NEAR(dist.log_prob_all(logits.data(), choice),
              log_prob(logits.data(), 4, 1) + log_prob(logits.data() + 4, 4, 0) +
                  log_prob(logits.data() + 8, 4, 3),
              1e-12);
}

TEST(Mlp, BackwardMatchesNumericalGradient) {
  Rng rng(11);
  MlpConfig cfg;
  cfg.input = 3;
  cfg.hidden = {5};
  cfg.output = 2;
  Mlp net(cfg, rng);

  Matrix x(2, 3);
  for (auto& v : x.data()) v = rng.normal();
  // Loss = sum of outputs (grad_output = ones).
  ForwardCache cache;
  net.forward(x, &cache);
  Gradients grads = net.make_gradients();
  Matrix ones(2, 2);
  ones.fill(1.0);
  net.backward(cache, ones, grads);

  // Numerical check on a few parameters via the flat interface.
  auto params = net.flatten();
  const double eps = 1e-6;
  auto loss_at = [&](const std::vector<double>& p) {
    Mlp probe = net;
    probe.assign(p);
    const Matrix out = probe.forward(x);
    double s = 0;
    for (const double v : out.data()) s += v;
    return s;
  };
  // Flatten analytic grads in the same order as flatten().
  std::vector<double> flat_grads;
  for (const auto& w : grads.weights) {
    flat_grads.insert(flat_grads.end(), w.data().begin(), w.data().end());
  }
  for (const auto& b : grads.biases) {
    flat_grads.insert(flat_grads.end(), b.data().begin(), b.data().end());
  }
  for (std::size_t idx : {std::size_t{0}, std::size_t{7}, params.size() - 1}) {
    auto p = params;
    p[idx] += eps;
    const double up = loss_at(p);
    p[idx] -= 2 * eps;
    const double down = loss_at(p);
    EXPECT_NEAR(flat_grads[idx], (up - down) / (2 * eps), 1e-4) << "param " << idx;
  }
}

TEST(Mlp, FlattenAssignRoundTrip) {
  Rng rng(2);
  MlpConfig cfg;
  cfg.input = 4;
  cfg.hidden = {8, 8};
  cfg.output = 3;
  Mlp a(cfg, rng);
  Mlp b(cfg, rng);
  b.assign(a.flatten());
  Matrix x(1, 4);
  x.at(0, 1) = 0.7;
  const Matrix ya = a.forward(x);
  const Matrix yb = b.forward(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(ya.at(0, i), yb.at(0, i));
  EXPECT_EQ(a.parameter_count(), 4 * 8 + 8 + 8 * 8 + 8 + 8 * 3 + 3);
}

TEST(Adam, ReducesQuadraticLoss) {
  // Fit y = 0 from random init: loss = ||f(x)||^2 on fixed input.
  Rng rng(9);
  MlpConfig cfg;
  cfg.input = 2;
  cfg.hidden = {8};
  cfg.output = 1;
  Mlp net(cfg, rng);
  Adam opt(net, {.lr = 0.01});
  Matrix x(4, 2);
  for (auto& v : x.data()) v = rng.normal();

  auto loss = [&]() {
    const Matrix y = net.forward(x);
    double s = 0;
    for (const double v : y.data()) s += v * v;
    return s;
  };
  const double initial = loss();
  for (int step = 0; step < 200; ++step) {
    ForwardCache cache;
    const Matrix y = net.forward(x, &cache);
    Matrix dy(4, 1);
    for (std::size_t i = 0; i < 4; ++i) dy.at(i, 0) = 2.0 * y.at(i, 0);
    Gradients g = net.make_gradients();
    net.backward(cache, dy, g);
    opt.step(net, g);
  }
  EXPECT_LT(loss(), initial * 0.05);
}

TEST(RandomForest, LearnsThresholdRule) {
  // y = x[2] > 0.5, with 5 noise features.
  Rng rng(4);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 600; ++i) {
    std::vector<double> row(6);
    for (auto& v : row) v = rng.uniform();
    y.push_back(row[2] > 0.5 ? 1 : 0);
    x.push_back(std::move(row));
  }
  RandomForest forest({.num_trees = 20, .max_depth = 6, .seed = 1});
  forest.fit(x, y);
  EXPECT_GT(forest.accuracy(x, y), 0.95);
  // Importance concentrated on feature 2.
  const auto& imp = forest.feature_importances();
  for (std::size_t f = 0; f < imp.size(); ++f) {
    if (f != 2) EXPECT_LT(imp[f], imp[2]);
  }
  double sum = 0;
  for (const double v : imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomForest, XorNeedsDepth) {
  // y = (x0 > 0.5) xor (x1 > 0.5): not separable by a depth-1 stump forest,
  // learnable with depth >= 2.
  Rng rng(8);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 800; ++i) {
    std::vector<double> row{rng.uniform(), rng.uniform()};
    y.push_back(((row[0] > 0.5) ^ (row[1] > 0.5)) ? 1 : 0);
    x.push_back(std::move(row));
  }
  RandomForest shallow({.num_trees = 15, .max_depth = 1, .features_per_split = 2, .seed = 2});
  shallow.fit(x, y);
  RandomForest deep({.num_trees = 15, .max_depth = 5, .features_per_split = 2, .seed = 2});
  deep.fit(x, y);
  EXPECT_GT(deep.accuracy(x, y), 0.9);
  EXPECT_GT(deep.accuracy(x, y), shallow.accuracy(x, y) + 0.2);
}

TEST(RandomForest, DegenerateLabels) {
  std::vector<std::vector<double>> x = {{1.0}, {2.0}, {3.0}};
  std::vector<int> y = {1, 1, 1};
  RandomForest forest({.num_trees = 3});
  forest.fit(x, y);
  EXPECT_GE(forest.predict({1.5}), 0.5);
}

}  // namespace
}  // namespace autophase::ml
