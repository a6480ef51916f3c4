#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/ordering.hpp"
#include "linalg/solvers.hpp"
#include "linalg/sparse.hpp"

namespace aqua::linalg {
namespace {

/// Diagonally dominant SPD matrix with the sparsity of a w x h grid graph
/// (the planar structure of water networks).
CsrMatrix grid_spd(std::size_t w, std::size_t h, Rng& rng) {
  const std::size_t n = w * h;
  CooBuilder builder(n);
  auto id = [w](std::size_t x, std::size_t y) { return y * w + x; };
  std::vector<double> diag(n, 1.0);
  auto couple = [&](std::size_t a, std::size_t b) {
    const double v = 0.5 + rng.uniform();
    builder.add(a, b, -v);
    builder.add(b, a, -v);
    diag[a] += v;
    diag[b] += v;
  };
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (x + 1 < w) couple(id(x, y), id(x + 1, y));
      if (y + 1 < h) couple(id(x, y), id(x, y + 1));
    }
  }
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, diag[i]);
  return builder.build();
}

TEST(MinimumDegree, ProducesAValidPermutation) {
  Rng rng(7);
  const auto a = grid_spd(5, 4, rng);
  const auto perm = minimum_degree_ordering(a);
  ASSERT_EQ(perm.size(), a.rows());
  std::vector<char> seen(perm.size(), 0);
  for (std::size_t v : perm) {
    ASSERT_LT(v, perm.size());
    EXPECT_EQ(seen[v], 0);
    seen[v] = 1;
  }
  const auto pinv = inverse_permutation(perm);
  for (std::size_t k = 0; k < perm.size(); ++k) EXPECT_EQ(pinv[perm[k]], k);
}

TEST(MinimumDegree, StarGraphEliminatesLeavesFirst) {
  // Star: node 0 is the hub. Natural order eliminates the hub first and
  // fills the leaf clique; minimum degree eliminates leaves first and
  // produces a factor with no fill at all.
  const std::size_t n = 12;
  CooBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, static_cast<double>(n));
  for (std::size_t leaf = 1; leaf < n; ++leaf) {
    builder.add(0, leaf, -1.0);
    builder.add(leaf, 0, -1.0);
  }
  const auto a = builder.build();

  SparseLdlt natural;
  std::vector<std::size_t> identity(n);
  for (std::size_t i = 0; i < n; ++i) identity[i] = i;
  natural.analyze(a, identity);

  SparseLdlt min_degree;
  min_degree.analyze(a);

  EXPECT_EQ(min_degree.factor_nnz(), n - 1);  // one entry per leaf, zero fill
  EXPECT_GT(natural.factor_nnz(), min_degree.factor_nnz());

  // Both orderings must of course solve the same system.
  Rng rng(3);
  std::vector<double> x_true(n);
  for (double& v : x_true) v = rng.normal();
  std::vector<double> b(n), x1(n), x2(n);
  a.multiply_into(x_true, b);
  natural.factorize(a);
  min_degree.factorize(a);
  natural.solve(b, x1);
  min_degree.solve(b, x2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x1[i], x_true[i], 1e-10);
    EXPECT_NEAR(x2[i], x_true[i], 1e-10);
  }
}

TEST(SparseLdlt, SolvesGridSystemToHighAccuracy) {
  Rng rng(11);
  const auto a = grid_spd(9, 7, rng);
  const std::size_t n = a.rows();
  std::vector<double> x_true(n);
  for (double& v : x_true) v = rng.normal();
  std::vector<double> b(n);
  a.multiply_into(x_true, b);

  SparseLdlt factor;
  factor.analyze(a);
  factor.factorize(a);
  std::vector<double> x(n, 0.0);
  factor.solve(b, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);

  // And it agrees with CG on the same system.
  const auto cg = conjugate_gradient(a, b);
  ASSERT_TRUE(cg.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], cg.x[i], 1e-8);
}

TEST(SparseLdlt, RefactorizationIsBitIdenticalToFreshFactorization) {
  Rng rng(23);
  auto a = grid_spd(6, 6, rng);

  SparseLdlt reused;
  reused.analyze(a);
  reused.factorize(a);

  // Change the numeric values (same pattern), refactorize the reused
  // symbolic structure, and compare against a from-scratch factorization.
  auto values = a.values();
  for (double& v : values) v *= 1.5;
  reused.factorize(a);

  SparseLdlt fresh;
  fresh.analyze(a);
  fresh.factorize(a);

  ASSERT_EQ(reused.factor_nnz(), fresh.factor_nnz());
  const auto dr = reused.diagonal();
  const auto df = fresh.diagonal();
  const auto lr = reused.factor_values();
  const auto lf = fresh.factor_values();
  for (std::size_t i = 0; i < dr.size(); ++i) EXPECT_EQ(dr[i], df[i]);
  for (std::size_t i = 0; i < lr.size(); ++i) EXPECT_EQ(lr[i], lf[i]);

  const std::vector<double> b(a.rows(), 1.0);
  std::vector<double> x_reused(a.rows()), x_fresh(a.rows());
  reused.solve(b, x_reused);
  fresh.solve(b, x_fresh);
  EXPECT_EQ(x_reused, x_fresh);
}

TEST(SparseLdlt, RefactorizationAfterRejectedPivotIsBitIdenticalToFresh) {
  Rng rng(29);
  const auto a = grid_spd(7, 6, rng);

  SparseLdlt reused;
  reused.analyze(a);

  // Same pattern, but the row eliminated last gets a negative diagonal:
  // its pivot fails after every earlier row has written its part of the
  // factor and after the widest reach has been eliminated.
  auto bad = a;
  const std::size_t row = reused.permutation()[a.rows() - 1];
  const auto rp = bad.row_pointers();
  const auto ci = bad.column_indices();
  auto bad_values = bad.values();
  for (std::size_t p = rp[row]; p < rp[row + 1]; ++p) {
    if (ci[p] == row) bad_values[p] = -100.0;
  }
  EXPECT_THROW(reused.factorize(bad), SolverError);
  EXPECT_FALSE(reused.factorized());

  reused.factorize(a);
  EXPECT_TRUE(reused.factorized());
  SparseLdlt fresh;
  fresh.analyze(a);
  fresh.factorize(a);

  ASSERT_EQ(reused.factor_nnz(), fresh.factor_nnz());
  const auto dr = reused.diagonal();
  const auto df = fresh.diagonal();
  const auto lr = reused.factor_values();
  const auto lf = fresh.factor_values();
  for (std::size_t i = 0; i < dr.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dr[i]), std::bit_cast<std::uint64_t>(df[i]));
  }
  for (std::size_t i = 0; i < lr.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lr[i]), std::bit_cast<std::uint64_t>(lf[i]));
  }
  std::vector<double> b(a.rows());
  for (double& v : b) v = rng.normal();
  std::vector<double> x_reused(a.rows()), x_fresh(a.rows());
  reused.solve(b, x_reused);
  fresh.solve(b, x_fresh);
  EXPECT_EQ(x_reused, x_fresh);
}

TEST(SparseLdlt, RejectsIndefiniteMatrix) {
  CooBuilder builder(2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 2.0);
  builder.add(1, 0, 2.0);
  builder.add(1, 1, 1.0);  // eigenvalues 3 and -1: indefinite
  const auto a = builder.build();
  SparseLdlt factor;
  factor.analyze(a);
  EXPECT_THROW(factor.factorize(a), SolverError);
  EXPECT_FALSE(factor.factorized());
}

TEST(SparseLdlt, RejectsSingularMatrix) {
  CooBuilder builder(2);
  builder.add(0, 0, 1.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 1.0);  // rank 1
  const auto a = builder.build();
  SparseLdlt factor;
  factor.analyze(a);
  EXPECT_THROW(factor.factorize(a), SolverError);
}

TEST(SparseLdlt, GuardsApiMisuse) {
  SparseLdlt factor;
  CooBuilder builder(1);
  builder.add(0, 0, 2.0);
  const auto a = builder.build();
  EXPECT_THROW(factor.factorize(a), InvalidArgument);  // analyze first
  factor.analyze(a);
  CooBuilder other(1);
  const auto empty_row = other.build();
  EXPECT_THROW(factor.factorize(empty_row), InvalidArgument);  // not the analyzed pattern
  std::vector<double> b{1.0}, x{0.0};
  EXPECT_THROW(factor.solve(b, x), InvalidArgument);  // factorize first
  factor.factorize(a);
  factor.solve(b, x);
  EXPECT_NEAR(x[0], 0.5, 1e-15);
}

}  // namespace
}  // namespace aqua::linalg
