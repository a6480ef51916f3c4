// Tests for solving node systems A x = b the way the hydraulic GGA does:
// blocked multi-RHS identity and copy semantics of the direct SparseLdlt
// (cholesky.hpp), and the breakdown and iteration-budget discipline of its
// conjugate-gradient test oracle (solvers.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/solvers.hpp"
#include "linalg/sparse.hpp"

namespace aqua::linalg {
namespace {

/// 2-D grid Laplacian + I: SPD, same structural family as the GGA node
/// systems (symmetric M-matrix with a dominant diagonal).
CsrMatrix grid_laplacian(std::size_t side, double diag_boost = 1.0) {
  const std::size_t n = side * side;
  CooBuilder builder(n);
  auto id = [&](std::size_t r, std::size_t c) { return r * side + c; };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      if (c + 1 < side) {
        builder.add(id(r, c), id(r, c + 1), -1.0);
        builder.add(id(r, c + 1), id(r, c), -1.0);
      }
      if (r + 1 < side) {
        builder.add(id(r, c), id(r + 1, c), -1.0);
        builder.add(id(r + 1, c), id(r, c), -1.0);
      }
    }
  }
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      double degree = 0.0;
      if (c + 1 < side) degree += 1.0;
      if (c > 0) degree += 1.0;
      if (r + 1 < side) degree += 1.0;
      if (r > 0) degree += 1.0;
      builder.add(id(r, c), id(r, c), degree + diag_boost);
    }
  }
  return builder.build();
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

TEST(SparseLdlt, SolveBlockMatchesRepeatedSolves) {
  const CsrMatrix a = grid_laplacian(8);
  const std::size_t n = a.rows();
  // 11 right-hand sides cross the 8-wide tile boundary, so both the
  // full-tile and the remainder paths run.
  const std::size_t nrhs = 11;
  ASSERT_GT(nrhs, SparseLdlt::kBlockWidth);
  std::vector<double> b(nrhs * n);
  for (std::size_t k = 0; k < nrhs; ++k) {
    const auto bk = random_vector(n, 100 + k);
    std::copy(bk.begin(), bk.end(), b.begin() + static_cast<std::ptrdiff_t>(k * n));
  }

  SparseLdlt factor;
  factor.analyze(a);
  factor.factorize(a);
  std::vector<double> x_block(nrhs * n, 0.0);
  factor.solve_block(b, x_block, nrhs);

  for (std::size_t k = 0; k < nrhs; ++k) {
    std::vector<double> x(n, 0.0);
    factor.solve(std::span<const double>(b.data() + k * n, n), x);
    for (std::size_t i = 0; i < n; ++i) {
      // Bit-identical: solve_block is documented as the identical per-RHS
      // operation sequence.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x_block[k * n + i]),
                std::bit_cast<std::uint64_t>(x[i]))
          << "rhs " << k << " entry " << i;
    }
  }
}

TEST(SparseLdlt, CopyRefactorsAndSolvesBitIdentically) {
  // What the GgaSolver prototype constructor relies on: a copy carries the
  // analysis and factor, and from then on the two evolve independently.
  CsrMatrix a = grid_laplacian(7);
  const auto b = random_vector(a.rows(), 23);

  SparseLdlt original;
  original.analyze(a);
  original.factorize(a);
  const std::size_t n = a.rows();
  std::vector<double> x_before(n), x_copy(n), x_orig(n);
  original.solve(b, x_before);

  SparseLdlt copy = original;
  copy.solve(b, x_copy);
  EXPECT_EQ(x_copy, x_before);

  // Refactor both on new values of the same pattern.
  auto values = a.values();
  for (double& v : values) v *= 2.5;
  copy.factorize(a);
  original.factorize(a);
  const auto dc = copy.diagonal();
  const auto d_orig = original.diagonal();
  for (std::size_t i = 0; i < dc.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dc[i]), std::bit_cast<std::uint64_t>(d_orig[i]));
  }
  copy.solve(b, x_copy);
  original.solve(b, x_orig);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x_copy[i]), std::bit_cast<std::uint64_t>(x_orig[i]));
  }
  // A x = b with A scaled by 2.5 gives x / 2.5 up to rounding.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_copy[i], x_before[i] / 2.5, 1e-12);
  }

  // Refactoring the original must not touch the copy.
  for (double& v : values) v *= 4.0;
  original.factorize(a);
  std::vector<double> x_again(n);
  copy.solve(b, x_again);
  EXPECT_EQ(x_again, x_copy);
}

TEST(ConjugateGradient, BreakdownReportedHonestly) {
  // Singular PSD matrix [[1,1],[1,1]] with b orthogonal to its range: the
  // first search direction has zero curvature (p'Ap == 0). Dividing by it
  // would silently produce NaN; the loop reports breakdown instead and
  // leaves the iterate finite.
  CooBuilder builder(2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);
  const CsrMatrix a = builder.build();
  const auto result = conjugate_gradient(a, std::vector<double>{1.0, -1.0});
  EXPECT_TRUE(result.breakdown);
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(std::isfinite(result.x[0]) && std::isfinite(result.x[1]));
  EXPECT_TRUE(std::isfinite(result.relative_residual));
}

TEST(ConjugateGradient, ConvergenceAtExactIterationBudgetIsConsistent) {
  // Re-running with max_iterations set to the exact count of a converged
  // solve must still report converged with the same count and iterate,
  // not a budget exit contradicting a final residual check.
  const CsrMatrix a = grid_laplacian(5);
  const auto b = random_vector(a.rows(), 3);

  const auto first = conjugate_gradient(a, b);
  ASSERT_TRUE(first.converged);
  ASSERT_GT(first.iterations, 0u);

  CgOptions exact;
  exact.max_iterations = first.iterations;
  const auto second = conjugate_gradient(a, b, {}, exact);
  EXPECT_TRUE(second.converged);
  EXPECT_EQ(second.iterations, first.iterations);
  EXPECT_FALSE(second.breakdown);
  EXPECT_EQ(second.x, first.x);

  // One iteration short is an honest budget exit.
  exact.max_iterations = first.iterations - 1;
  const auto short_budget = conjugate_gradient(a, b, {}, exact);
  EXPECT_FALSE(short_budget.converged);
  EXPECT_FALSE(short_budget.breakdown);
  EXPECT_EQ(short_budget.iterations, first.iterations - 1);
}

}  // namespace
}  // namespace aqua::linalg
