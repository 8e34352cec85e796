#include "ml/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "ml/kernels.hpp"

// The AVX2 variants need per-function targets, which x86-64 GCC and Clang
// provide; every other build compiles the baseline body alone.
#if defined(__x86_64__) && defined(__GNUC__)
#define AUTOPHASE_ML_AVX2 1
#else
#define AUTOPHASE_ML_AVX2 0
#endif

namespace autophase::ml {

Matrix Matrix::randn(Rng& rng, std::size_t rows, std::size_t cols, double stddev) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.normal(0.0, stddev);
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

void Matrix::add_scaled(const Matrix& other, double s) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i] * s;
}

namespace {

// The vectors the two paths compute with: two doubles (one SSE2 register)
// on the baseline path, four (one AVX2 register) on the AVX2 path. Lanes
// never mix, so the width moves no bit.
using F64x2 = double __attribute__((vector_size(16)));
using F64x4 = double __attribute__((vector_size(32)));

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

/// Sets every lane of `v` to x. (V{} + x would turn a -0.0 into +0.0.)
template <typename V>
[[gnu::always_inline]] inline void splat(V& v, double x) {
  for (std::size_t l = 0; l < kLanes<V>; ++l) v[l] = x;
}

/// out (m x n, zeroed) = A (m x depth) @ B (depth x n). B and out are
/// row-major; A is read through strides, so matmul_tn walks a^T in place.
struct Gemm {
  const double* a;
  std::size_t a_row_stride;
  std::size_t a_col_stride;
  const double* b;
  double* out;
  std::size_t m;
  std::size_t depth;
  std::size_t n;
  /// matmul's zero-skip: a zero of A adds nothing, even against an infinite
  /// or NaN entry of B (whose product would be NaN).
  bool skip_zero;

  [[nodiscard]] double a_at(std::size_t i, std::size_t k) const {
    return a[i * a_row_stride + k * a_col_stride];
  }
};

/// Rows [i0, i1) x columns [j0, j1) of out, streaming B row by row.
/// Row-blocked: with k in the middle, one row of B serves every row of the
/// block while it is hot in cache, cutting B traffic by the block height.
template <typename V, bool kSkipZero>
[[gnu::always_inline]] inline void stream(const Gemm& g, std::size_t i0, std::size_t i1,
                                          std::size_t j0, std::size_t j1) {
  constexpr std::size_t kRowBlock = 8;
  for (std::size_t r0 = i0; r0 < i1; r0 += kRowBlock) {
    const std::size_t r1 = std::min(r0 + kRowBlock, i1);
    for (std::size_t k = 0; k < g.depth; ++k) {
      const double* brow = g.b + k * g.n;
      for (std::size_t i = r0; i < r1; ++i) {
        const double av = g.a_at(i, k);
        if (kSkipZero && av == 0.0) continue;
        double* orow = g.out + i * g.n;
        V avec = {};
        splat(avec, av);
        std::size_t j = j0;
        for (; j + kLanes<V> <= j1; j += kLanes<V>) {
          V o = {};
          V bv = {};
          std::memcpy(&o, orow + j, sizeof o);
          std::memcpy(&bv, brow + j, sizeof bv);
          o += avec * bv;
          std::memcpy(orow + j, &o, sizeof o);
        }
        for (; j < j1; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

/// A tile is kTileRows rows by two vectors: 4 x 8 outputs on the AVX2 path.
constexpr std::size_t kTileRows = 4;
template <typename V>
constexpr std::size_t kTileCols = 2 * kLanes<V>;
/// Products with fewer rows stream: a one-row forward has no rows to share
/// a B load between, and the tile would only add its column tail.
constexpr std::size_t kTileMinRows = 8;

/// The tile of out at (i, j), kept in registers (eight accumulators) across
/// all of k, GotoBLAS-style: each k loads two vectors of B and one scalar of
/// A per row, and stores nothing. Every product is kept; gemm sends a
/// zero-skipping product here only when the skip cannot move a bit.
template <typename V>
[[gnu::always_inline]] inline void tile(const Gemm& g, std::size_t i, std::size_t j) {
  V acc[kTileRows][2] = {};
  for (std::size_t k = 0; k < g.depth; ++k) {
    V b0 = {};
    V b1 = {};
    std::memcpy(&b0, g.b + k * g.n + j, sizeof b0);
    std::memcpy(&b1, g.b + k * g.n + j + kLanes<V>, sizeof b1);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kTileRows; ++r) {
      V avec = {};
      splat(avec, g.a_at(i + r, k));
      acc[r][0] += avec * b0;
      acc[r][1] += avec * b1;
    }
  }
  for (std::size_t r = 0; r < kTileRows; ++r) {
    double* orow = g.out + (i + r) * g.n + j;
    std::memcpy(orow, &acc[r][0], sizeof acc[r][0]);
    std::memcpy(orow + kLanes<V>, &acc[r][1], sizeof acc[r][1]);
  }
}

/// True when no entry is infinite or NaN: x - x is then +0.0, all bits
/// clear, for every x.
template <typename V>
[[gnu::always_inline]] inline bool all_finite(const double* p, std::size_t count) {
  using Bits = decltype(V{} != V{});
  Bits any = {};
  std::size_t i = 0;
  for (; i + kLanes<V> <= count; i += kLanes<V>) {
    V v = {};
    std::memcpy(&v, p + i, sizeof v);
    any |= (Bits)(v - v);
  }
  std::int64_t bits = 0;
  for (std::size_t l = 0; l < kLanes<V>; ++l) bits |= any[l];
  for (; i < count; ++i) bits |= std::bit_cast<std::int64_t>(p[i] - p[i]);
  return bits == 0;
}

/// The one kernel body. Both loops sum each element's products over k in
/// ascending order from +0.0, so which one covers an element moves no bit,
/// and neither does the row count that chooses between them. The zero-skip
/// moves no bit either when B is finite: a zero of A then adds ±0.0 to a
/// sum that starts at +0.0 and so is never -0.0. A non-finite B, which only
/// a diverged network has, streams, where the skip is explicit.
template <typename V, bool kSkipZero>
[[gnu::always_inline]] inline void gemm(const Gemm& g) {
  if (g.m < kTileMinRows || (kSkipZero && !all_finite<V>(g.b, g.depth * g.n))) {
    stream<V, kSkipZero>(g, 0, g.m, 0, g.n);
    return;
  }
  const std::size_t m_tiled = g.m - g.m % kTileRows;
  const std::size_t n_tiled = g.n - g.n % kTileCols<V>;
  for (std::size_t j = 0; j < n_tiled; j += kTileCols<V>) {
    for (std::size_t i = 0; i < m_tiled; i += kTileRows) tile<V>(g, i, j);
  }
  stream<V, kSkipZero>(g, 0, m_tiled, n_tiled, g.n);
  stream<V, kSkipZero>(g, m_tiled, g.m, 0, g.n);
}

void gemm_baseline(const Gemm& g) { g.skip_zero ? gemm<F64x2, true>(g) : gemm<F64x2, false>(g); }

#if AUTOPHASE_ML_AVX2
// AVX2 without FMA: target("avx2") does not enable FMA, and matrix.cpp is
// built with -ffp-contract=off, so every multiply and add still rounds.
[[gnu::target("avx2")]] void gemm_avx2(const Gemm& g) {
  g.skip_zero ? gemm<F64x4, true>(g) : gemm<F64x4, false>(g);
}
#endif

void run(const Gemm& g, detail::Isa isa) {
  assert(detail::isa_supported(isa));
#if AUTOPHASE_ML_AVX2
  if (isa == detail::Isa::kAvx2) {
    gemm_avx2(g);
  } else {
    gemm_baseline(g);
  }
#else
  gemm_baseline(g);
#endif
  // When both operands of an add are NaN, the sum is one of them, and which
  // one depends on the operand order each path's code happens to use. One
  // quiet NaN for every NaN keeps the paths' bits equal.
  for (double* p = g.out; p != g.out + g.m * g.n; ++p) {
    if (std::isnan(*p)) *p = std::numeric_limits<double>::quiet_NaN();
  }
}

}  // namespace

namespace detail {

const char* isa_name(Isa isa) noexcept { return isa == Isa::kAvx2 ? "avx2" : "baseline"; }

bool isa_supported(Isa isa) noexcept {
  if (isa == Isa::kBaseline) return true;
#if AUTOPHASE_ML_AVX2
  static const bool avx2 = [] {
    __builtin_cpu_init();  // the check may run before libgcc's constructor
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

Isa active_isa() noexcept { return isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline; }

Matrix matmul(const Matrix& a, const Matrix& b, Isa isa) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  run({.a = a.data().data(),
       .a_row_stride = a.cols(),
       .a_col_stride = 1,
       .b = b.data().data(),
       .out = out.data().data(),
       .m = a.rows(),
       .depth = a.cols(),
       .n = b.cols(),
       .skip_zero = true},
      isa);
  return out;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b, Isa isa) {
  assert(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  run({.a = a.data().data(),
       .a_row_stride = 1,
       .a_col_stride = a.cols(),
       .b = b.data().data(),
       .out = out.data().data(),
       .m = a.cols(),
       .depth = a.rows(),
       .n = b.cols(),
       .skip_zero = true},
      isa);
  return out;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b, Isa isa) {
  assert(a.cols() == b.cols());
  // A dot product per element would be one serial accumulator chain, which
  // cannot be vectorised without reassociating it. Transposing b once turns
  // the product into matmul's loop, which vectorises across independent
  // output elements and still sums a[i][k] * b[j][k] over k in ascending
  // order from 0.0. Unlike matmul there is no zero-skip: every product is
  // kept, so a non-finite weight propagates.
  const std::size_t n = b.rows();
  Matrix bt(b.cols(), n);
  for (std::size_t k = 0; k < b.cols(); ++k) {
    double* btrow = bt.row(k);  // strided reads, contiguous writes: the cheaper order
    for (std::size_t j = 0; j < n; ++j) btrow[j] = b.row(j)[k];
  }
  Matrix out(a.rows(), n);
  run({.a = a.data().data(),
       .a_row_stride = a.cols(),
       .a_col_stride = 1,
       .b = bt.data().data(),
       .out = out.data().data(),
       .m = a.rows(),
       .depth = a.cols(),
       .n = n,
       .skip_zero = false},
      isa);
  return out;
}

}  // namespace detail

Matrix matmul(const Matrix& a, const Matrix& b) {
  return detail::matmul(a, b, detail::active_isa());
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  return detail::matmul_tn(a, b, detail::active_isa());
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  return detail::matmul_nt(a, b, detail::active_isa());
}

}  // namespace autophase::ml
