#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "linalg/ordering.hpp"

namespace aqua::linalg {

void SparseLdlt::analyze(const CsrMatrix& pattern, std::vector<std::size_t> perm) {
  const std::size_t n = pattern.rows();
  if (perm.empty()) perm = minimum_degree_ordering(pattern);
  AQUA_REQUIRE(perm.size() == n, "analyze: permutation size mismatch");
  perm_ = std::move(perm);
  const std::vector<std::size_t> pinv = inverse_permutation(perm_);
  pattern_nnz_ = pattern.nnz();

  const auto rp = pattern.row_pointers();
  const auto ci = pattern.column_indices();

  // Elimination tree and column counts of L for the permuted matrix
  // (Davis, ldl_symbolic). Row k of the permuted matrix is original row
  // perm_[k]; original column c maps to pinv[c].
  std::vector<std::size_t> parent(n, kNone);
  std::vector<std::size_t> flag(n, kNone);
  std::vector<std::size_t> col_count(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    flag[k] = k;
    const std::size_t r = perm_[k];
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
      std::size_t i = pinv[ci[p]];
      if (i >= k) continue;
      // Walk up the elimination tree from i to the flagged prefix; every
      // node passed gains a nonzero in column i..'s chain for row k.
      for (; flag[i] != k; i = parent[i]) {
        if (parent[i] == kNone) parent[i] = k;
        ++col_count[i];
        flag[i] = k;
      }
    }
  }

  lp_.assign(n + 1, 0);
  for (std::size_t k = 0; k < n; ++k) lp_[k + 1] = lp_[k] + col_count[k];
  li_.assign(lp_[n], 0);

  // Row schedules: the scatter of each permuted row's upper-triangular
  // part and the pattern of row k of L as elimination-tree reaches, in
  // the topological order the numeric phase eliminates them
  // (stack[top..n)). Recording them here is what leaves factorize() a
  // pure replay over values.
  std::vector<std::size_t> path(n), stack(n), lnz(n, 0);
  std::fill(flag.begin(), flag.end(), kNone);
  scatter_ptr_.assign(1, 0);
  reach_ptr_.assign(1, 0);
  scatter_.clear();
  reach_.clear();
  reach_.reserve(lp_[n]);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t top = n;
    flag[k] = k;
    const std::size_t r = perm_[k];
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
      const std::size_t i0 = pinv[ci[p]];
      if (i0 > k) continue;
      scatter_.push_back({p, i0});
      std::size_t len = 0;
      for (std::size_t i = i0; flag[i] != k; i = parent[i]) {
        path[len++] = i;
        flag[i] = k;
      }
      while (len > 0) stack[--top] = path[--len];
    }
    for (; top < n; ++top) {
      const std::size_t i = stack[top];
      const std::size_t slot = lp_[i] + lnz[i]++;
      li_[slot] = k;
      reach_.push_back({i, slot});
    }
    scatter_ptr_.push_back(scatter_.size());
    reach_ptr_.push_back(reach_.size());
  }

  lx_.assign(lp_[n], 0.0);
  d_.assign(n, 0.0);
  y_.assign(n, 0.0);
  work_.assign(n, 0.0);
  factorized_ = false;
}

void SparseLdlt::factorize(const CsrMatrix& a) {
  const std::size_t n = dimension();
  AQUA_REQUIRE(analyzed(), "factorize before analyze");
  AQUA_REQUIRE(a.rows() == n && a.nnz() == pattern_nnz_,
               "factorize: pattern mismatch with analyzed pattern");

  const auto ax = a.values();
  for (std::size_t k = 0; k < n; ++k) {
    // Scatter the upper-triangular part of permuted column k into y_
    // (all-zero on entry), then eliminate along row k's recorded reach.
    for (std::size_t s = scatter_ptr_[k]; s < scatter_ptr_[k + 1]; ++s) {
      y_[scatter_[s].row] += ax[scatter_[s].a_slot];
    }
    double dk = y_[k];
    y_[k] = 0.0;
    for (std::size_t e = reach_ptr_[k]; e < reach_ptr_[k + 1]; ++e) {
      const auto [i, slot] = reach_[e];
      const double yi = y_[i];
      y_[i] = 0.0;
      for (std::size_t p = lp_[i]; p < slot; ++p) y_[li_[p]] -= lx_[p] * yi;
      const double lki = yi / d_[i];
      dk -= lki * yi;
      lx_[slot] = lki;
    }
    if (!(dk > 0.0) || !std::isfinite(dk)) {
      factorized_ = false;
      throw SolverError("sparse LDLT: non-positive pivot " + std::to_string(dk) + " at column " +
                        std::to_string(k) + " (matrix is singular or not positive definite)");
    }
    d_[k] = dk;
  }
  factorized_ = true;
}

void SparseLdlt::solve(std::span<const double> b, std::span<double> x) {
  const std::size_t n = dimension();
  AQUA_REQUIRE(factorized_, "solve before factorize");
  AQUA_REQUIRE(b.size() == n && x.size() == n, "solve: dimension mismatch");
  AQUA_REQUIRE(b.data() != x.data(), "solve: b and x must not alias");

  // work = P b; L work' = work; work'' = D^{-1} work'; L^T z = work'';
  // x = P^T z.
  for (std::size_t k = 0; k < n; ++k) work_[k] = b[perm_[k]];
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = work_[j];
    for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) work_[li_[p]] -= lx_[p] * xj;
  }
  for (std::size_t k = 0; k < n; ++k) work_[k] /= d_[k];
  for (std::size_t j = n; j-- > 0;) {
    double xj = work_[j];
    for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) xj -= lx_[p] * work_[li_[p]];
    work_[j] = xj;
  }
  for (std::size_t k = 0; k < n; ++k) x[perm_[k]] = work_[k];
}

void SparseLdlt::solve_block(std::span<const double> b, std::span<double> x, std::size_t nrhs) {
  const std::size_t n = dimension();
  AQUA_REQUIRE(factorized_, "solve_block before factorize");
  AQUA_REQUIRE(b.size() == n * nrhs && x.size() == n * nrhs,
               "solve_block: expected nrhs contiguous vectors of dimension() entries");
  AQUA_REQUIRE(b.data() != x.data(), "solve_block: b and x must not alias");

  if (block_work_.size() < n * kBlockWidth) block_work_.assign(n * kBlockWidth, 0.0);
  for (std::size_t t0 = 0; t0 < nrhs; t0 += kBlockWidth) {
    const std::size_t w = std::min(kBlockWidth, nrhs - t0);
    double* work = block_work_.data();
    // Gather the tile node-major (all RHS of one permuted row contiguous)
    // so the triangular passes touch each factor column once per tile.
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t src = perm_[k];
      for (std::size_t t = 0; t < w; ++t) work[k * w + t] = b[(t0 + t) * n + src];
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double* xj = work + j * w;
      for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) {
        double* row = work + li_[p] * w;
        const double l = lx_[p];
        for (std::size_t t = 0; t < w; ++t) row[t] -= l * xj[t];
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      const double dk = d_[k];
      for (std::size_t t = 0; t < w; ++t) work[k * w + t] /= dk;
    }
    for (std::size_t j = n; j-- > 0;) {
      double* xj = work + j * w;
      for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) {
        const double* row = work + li_[p] * w;
        const double l = lx_[p];
        for (std::size_t t = 0; t < w; ++t) xj[t] -= l * row[t];
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t dst = perm_[k];
      for (std::size_t t = 0; t < w; ++t) x[(t0 + t) * n + dst] = work[k * w + t];
    }
  }
}

}  // namespace aqua::linalg
