#include "linalg/dense.hpp"

#include <cmath>

#include "common/error.hpp"

namespace aqua::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double dot(std::span<const double> x, std::span<const double> y) {
  AQUA_REQUIRE(x.size() == y.size(), "dot dimension mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

void axpy(double alpha, std::span<const double> y, std::span<double> x) {
  AQUA_REQUIRE(x.size() == y.size(), "axpy dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += alpha * y[i];
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

}  // namespace aqua::linalg
