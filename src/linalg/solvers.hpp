// Jacobi-preconditioned conjugate gradients: the named test oracle for the
// sparse LDL^T factorization (cholesky.hpp), which is the only solver the
// hydraulic Global Gradient Algorithm runs. An independent iterative
// method on the same SPD systems cross-checks the direct factor without
// sharing any of its ordering, symbolic or numeric code.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/sparse.hpp"

namespace aqua::linalg {

struct CgOptions {
  std::size_t max_iterations = 2000;
  double tolerance = 1e-10;  // relative residual ||r|| / ||b||
};

/// `iterations` counts the iterations actually applied to `x` at every
/// exit, including convergence detected exactly at the iteration budget.
/// `breakdown` is set when the recurrence could not continue (zero
/// curvature p'Ap, a vanished r'z, or a non-finite inner product); `x`
/// then holds the last valid approximation instead of NaN.
struct CgResult {
  std::vector<double> x;
  std::size_t iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
  bool breakdown = false;
};

/// Jacobi-preconditioned conjugate gradients for SPD `a`. `x0` (optional)
/// warm-starts the iteration. Throws SolverError when the matrix reveals
/// itself indefinite (p'Ap < 0); the iteration budget and breakdown are
/// reported in the result instead.
CgResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b,
                            std::span<const double> x0 = {}, const CgOptions& options = {});

}  // namespace aqua::linalg
