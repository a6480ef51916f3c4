// Dense linear algebra: the row-major matrix that holds ML feature rows,
// and the vector kernels (dot, axpy, norm2) of the conjugate-gradient
// oracle (solvers.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aqua::linalg {

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  /// View of row r.
  std::span<double> row(std::size_t r) noexcept { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  const std::vector<double>& data() const noexcept { return data_; }
  std::vector<double>& data() noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dot product; spans must have equal length.
double dot(std::span<const double> x, std::span<const double> y);

/// x += alpha * y.
void axpy(double alpha, std::span<const double> y, std::span<double> x);

/// Euclidean norm.
double norm2(std::span<const double> x);

}  // namespace aqua::linalg
