#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "common/error.hpp"
#include "linalg/solvers.hpp"
#include "linalg/sparse.hpp"

namespace aqua::linalg {
namespace {

CsrMatrix laplacian_chain(std::size_t n) {
  // Tridiagonal SPD: 2 on diagonal (+1 at ends), -1 off-diagonal... use
  // 2I - offdiag with Dirichlet-like ends (diag 2 everywhere) -> SPD.
  CooBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, 2.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    builder.add(i, i + 1, -1.0);
    builder.add(i + 1, i, -1.0);
  }
  return builder.build();
}

TEST(CooBuilder, MergesDuplicates) {
  CooBuilder builder(2);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.5);
  builder.add(1, 0, -1.0);
  const CsrMatrix m = builder.build();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(std::vector<std::size_t>(m.row_pointers().begin(), m.row_pointers().end()),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(std::vector<std::size_t>(m.column_indices().begin(), m.column_indices().end()),
            (std::vector<std::size_t>{0, 0}));
  EXPECT_DOUBLE_EQ(m.values()[0], 3.5);
  EXPECT_DOUBLE_EQ(m.values()[1], -1.0);
}

TEST(CooBuilder, RejectsOutOfRange) {
  CooBuilder builder(2);
  EXPECT_THROW(builder.add(2, 0, 1.0), InvalidArgument);
}

TEST(CsrMatrix, MultiplyMatchesDense) {
  const CsrMatrix m = laplacian_chain(4);
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  std::vector<double> y(4, -99.0);
  m.multiply_into(x, y);
  // Row 0: 2*1 - 2 = 0; row 1: -1 + 4 - 3 = 0; row 2: -2+6-4 = 0; row 3: -3+8=5.
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 5.0);
  EXPECT_THROW(m.multiply_into(x, std::span<double>(y.data(), 3)), InvalidArgument);
}

TEST(CsrMatrix, ZeroValuesKeepsPattern) {
  CsrMatrix m = laplacian_chain(3);
  m.zero_values();
  EXPECT_EQ(m.nnz(), 7u);
  for (const double v : m.values()) EXPECT_EQ(v, 0.0);
}

TEST(ConjugateGradient, SolvesLaplacian) {
  const std::size_t n = 50;
  const CsrMatrix a = laplacian_chain(n);
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = std::sin(0.3 * static_cast<double>(i));
  std::vector<double> b(n);
  a.multiply_into(x_true, b);
  const auto result = conjugate_gradient(a, b);
  ASSERT_TRUE(result.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(result.x[i], x_true[i], 1e-7);
}

TEST(ConjugateGradient, WarmStartReducesIterations) {
  const std::size_t n = 80;
  const CsrMatrix a = laplacian_chain(n);
  std::vector<double> x_true(n, 1.0);
  std::vector<double> b(n);
  a.multiply_into(x_true, b);
  const auto cold = conjugate_gradient(a, b);
  // Warm start at the exact solution converges immediately.
  const auto warm = conjugate_gradient(a, b, x_true);
  ASSERT_TRUE(cold.converged);
  ASSERT_TRUE(warm.converged);
  EXPECT_EQ(warm.iterations, 0u);
  EXPECT_GT(cold.iterations, 0u);
}

TEST(ConjugateGradient, ZeroRhsGivesZero) {
  const CsrMatrix a = laplacian_chain(5);
  const auto result = conjugate_gradient(a, std::vector<double>(5, 0.0));
  EXPECT_TRUE(result.converged);
  for (double v : result.x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ConjugateGradient, DetectsIndefiniteMatrix) {
  CooBuilder builder(2);
  builder.add(0, 0, 1.0);
  builder.add(1, 1, -1.0);
  const CsrMatrix a = builder.build();
  EXPECT_THROW(conjugate_gradient(a, std::vector<double>{0.0, 1.0}), SolverError);
}

TEST(ConjugateGradient, DimensionMismatchThrows) {
  const CsrMatrix a = laplacian_chain(4);
  EXPECT_THROW(conjugate_gradient(a, std::vector<double>(3, 1.0)), InvalidArgument);
}

}  // namespace
}  // namespace aqua::linalg
