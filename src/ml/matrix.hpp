// Minimal dense row-major matrix for the policy/value networks (the paper's
// 256x256 fully-connected MLPs).
//
// matmul, matmul_tn and matmul_nt are compiled for baseline x86-64 and, in
// x86-64 GCC/Clang builds, for AVX2; the first call picks the one the CPU
// runs. Every path gives the same bits, which remote == local needs on a
// fleet of mixed CPUs: each output element rounds the product, then the
// sum, over k in ascending order from 0.0. Vectors run only across
// independent output columns, nothing is reassociated, no multiply and add
// fuse, and every NaN result is the one quiet NaN. Products of 8 rows or
// more keep a register tile across k; fewer rows stream B row by row.
// Neither choice moves a bit either.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "support/rng.hpp"

namespace autophase::ml {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// Adopts an existing row-major buffer (must be rows*cols long) — lets
  /// batch gatherers hand their staging buffer straight to the network
  /// without a copy.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    assert(data_.size() == rows_ * cols_);
  }

  static Matrix zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols); }

  /// Gaussian init scaled for tanh nets (Xavier-ish).
  static Matrix randn(Rng& rng, std::size_t rows, std::size_t cols, double stddev);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] double* row(std::size_t r) noexcept { return data_.data() + r * cols_; }
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return data_.data() + r * cols_;
  }

  [[nodiscard]] std::vector<double>& data() noexcept { return data_; }
  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  // ---- In-place arithmetic ----
  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double s);
  /// this += other * s (axpy).
  void add_scaled(const Matrix& other, double s);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// out = a @ b.
Matrix matmul(const Matrix& a, const Matrix& b);
/// out = a^T @ b.
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// out = a @ b^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

}  // namespace autophase::ml
