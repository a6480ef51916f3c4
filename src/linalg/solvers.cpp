#include "linalg/solvers.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/dense.hpp"

namespace aqua::linalg {

CgResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b,
                            std::span<const double> x0, const CgOptions& options) {
  const std::size_t n = a.rows();
  AQUA_REQUIRE(x0.empty() || x0.size() == n, "warm-start size mismatch");
  AQUA_REQUIRE(b.size() == n, "conjugate_gradient dimension mismatch");

  CgResult result;
  result.x.assign(n, 0.0);
  if (!x0.empty()) result.x.assign(x0.begin(), x0.end());
  std::vector<double>& x = result.x;

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    result.converged = true;
    return result;
  }

  // Jacobi preconditioner M = diag(A); rows without a (nonzero) stored
  // diagonal get weight 1.
  std::vector<double> inv_diag(n, 1.0);
  const auto row_ptr = a.row_pointers();
  const auto col = a.column_indices();
  const auto val = a.values();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col[k] == r && val[k] != 0.0) inv_diag[r] = 1.0 / val[k];
    }
  }

  std::vector<double> r(n), z(n), p(n), ap(n);
  a.multiply_into(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  double rz = dot(r, z);
  double rz_prev = 0.0;

  // Single exit discipline: the residual is checked at the top of every
  // pass, so `iterations` is the number of updates applied to `x` at every
  // return, including convergence detected exactly at the budget.
  for (std::size_t it = 0;; ++it) {
    result.iterations = it;
    result.relative_residual = norm2(r) / bnorm;
    if (!std::isfinite(result.relative_residual)) {
      result.breakdown = true;
      return result;
    }
    if (result.relative_residual < options.tolerance) {
      result.converged = true;
      return result;
    }
    if (it == options.max_iterations) return result;

    if (it == 0) {
      std::copy(z.begin(), z.end(), p.begin());
    } else {
      // beta = (r'z)_k / (r'z)_{k-1}. The denominator can underflow to
      // exactly zero on near-converged or badly scaled systems; dividing
      // would inject NaN into the iterate, so report breakdown with the
      // last valid iterate instead.
      if (rz_prev == 0.0 || !std::isfinite(rz)) {
        result.breakdown = true;
        return result;
      }
      const double beta = rz / rz_prev;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }

    a.multiply_into(p, ap);
    const double pap = dot(p, ap);
    if (pap < 0.0) {
      throw SolverError("conjugate_gradient: matrix is not positive definite");
    }
    if (pap == 0.0 || !std::isfinite(pap)) {
      // Zero curvature along p (singular direction or underflow): x is
      // still the best iterate; honest failure beats a NaN solution.
      result.breakdown = true;
      return result;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    rz_prev = rz;
    rz = dot(r, z);
  }
}

}  // namespace aqua::linalg
