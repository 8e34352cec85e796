#include "ml/matrix.hpp"

#include <algorithm>

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

Matrix matmul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  // Row-blocked: with k in the middle, one row of B streams through every
  // row of the tile while it is hot in cache, cutting B traffic by the tile
  // height (the classic loop re-reads all of B for every row of A). Each
  // output element still accumulates over k in ascending order with the
  // same zero-skip as before, so results stay bit-identical — a row's
  // logits never depend on which other rows share its forward_batch.
  constexpr std::size_t kRowTile = 8;
  const std::size_t n = b.cols();
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kRowTile) {
    const std::size_t i1 = std::min(i0 + kRowTile, a.rows());
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double* brow = b.row(k);
      for (std::size_t i = i0; i < i1; ++i) {
        const double av = a.row(i)[k];
        if (av == 0.0) continue;
        double* orow = out.row(i);
        for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  }
  return out;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.row(k);
    const double* brow = b.row(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out.row(i);
      for (std::size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.cols());
  // A dot product per element would be one serial accumulator chain, which
  // the compiler may not vectorise without reassociating it. Transposing b
  // once turns the product into matmul's row-blocked i-k-j loop, whose inner
  // loop runs across independent output elements. Each element still sums
  // a[i][k] * b[j][k] over k in ascending order from 0.0, so results are
  // bit-identical to the dot product. Unlike matmul there is no zero-skip:
  // every product is kept, so a non-finite weight propagates as before.
  const std::size_t n = b.rows();
  Matrix bt(b.cols(), n);
  for (std::size_t k = 0; k < b.cols(); ++k) {
    double* btrow = bt.row(k);  // strided reads, contiguous writes: the cheaper order
    for (std::size_t j = 0; j < n; ++j) btrow[j] = b.row(j)[k];
  }
  Matrix out(a.rows(), n);
  constexpr std::size_t kRowTile = 8;
  for (std::size_t i0 = 0; i0 < a.rows(); i0 += kRowTile) {
    const std::size_t i1 = std::min(i0 + kRowTile, a.rows());
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double* btrow = bt.row(k);
      for (std::size_t i = i0; i < i1; ++i) {
        const double av = a.row(i)[k];
        double* orow = out.row(i);
        for (std::size_t j = 0; j < n; ++j) orow[j] += av * btrow[j];
      }
    }
  }
  return out;
}

}  // namespace autophase::ml
