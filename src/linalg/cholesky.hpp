// Sparse LDL^T (Cholesky) factorization with split symbolic/numeric
// phases, mirroring EPANET 2's solver core: the elimination order, the
// factor's sparsity structure and each row's elimination schedule are
// computed once per network topology, and every Newton iteration only
// refills numeric values and replays that schedule. Up-looking row
// algorithm in the style of Davis's LDL (SIAM, "Direct Methods for Sparse
// Linear Systems", ch. 4).
//
// This is the one inner solver of the hydraulic GGA: every GgaSolver owns
// a SparseLdlt by value (hydraulics/solver.hpp), and a copy carries the
// analysis, which is how solver prototypes are cloned without re-running
// it. conjugate_gradient (solvers.hpp) is kept only as its test oracle.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/sparse.hpp"

namespace aqua::linalg {

/// Reusable sparse LDL^T factorization of SPD matrices sharing one
/// sparsity pattern. Workflow:
///
///   SparseLdlt f;
///   f.analyze(pattern);        // once: ordering + L pattern + row schedules
///   f.factorize(a);            // per matrix: numeric values only
///   f.solve(b, x);             // allocation-free triangular solves
///
/// `factorize`/`solve` perform no heap allocation after `analyze`, which is
/// what makes repeated hydraulic solves cheap. Copies are deep and
/// independent: a copy keeps the ordering, schedules and current factor.
class SparseLdlt {
 public:
  /// Symbolic analysis of `pattern` (square, symmetric, diagonal present
  /// on every row). `perm` is a fill-reducing elimination order; empty
  /// selects minimum-degree. Values of `pattern` are ignored. Besides the
  /// pattern of L, records for every permuted row the value slots it
  /// scatters and its elimination-tree reach in topological order, each
  /// reach entry with the L slot it fills — factorize() replays them.
  void analyze(const CsrMatrix& pattern, std::vector<std::size_t> perm = {});

  /// Numeric factorization of `a`, which must have exactly the sparsity
  /// pattern given to analyze(). Values only: it replays the recorded row
  /// schedules, so no tree walk and no index write happen here. Throws
  /// SolverError when a pivot is non-positive or non-finite (matrix not
  /// SPD / singular); the next factorize() is unaffected by the failure.
  void factorize(const CsrMatrix& a);

  /// Solves A x = b using the current factorization. `b` and `x` must not
  /// alias and both have dimension() elements.
  void solve(std::span<const double> b, std::span<double> x);

  /// Solves A X = B for `nrhs` right-hand sides sharing the current
  /// factorization. `b` and `x` hold nrhs vectors of dimension() entries
  /// each, each vector contiguous (sizes nrhs * dimension()); they must
  /// not alias. Per-RHS arithmetic is the identical operation sequence to
  /// solve(), so results are bit-identical to nrhs repeated solves — the
  /// blocked passes just amortize each factor column across up to
  /// kBlockWidth right-hand sides for cache reuse.
  void solve_block(std::span<const double> b, std::span<double> x, std::size_t nrhs);

  /// RHS tile width of solve_block (scratch is dimension() * kBlockWidth).
  static constexpr std::size_t kBlockWidth = 8;

  bool analyzed() const noexcept { return !perm_.empty() || dimension() == 0; }
  bool factorized() const noexcept { return factorized_; }
  std::size_t dimension() const noexcept { return d_.size(); }
  /// Off-diagonal nonzeros of L (fill metric for ordering quality).
  std::size_t factor_nnz() const noexcept { return li_.size(); }

  std::span<const std::size_t> permutation() const noexcept { return perm_; }
  std::span<const double> diagonal() const noexcept { return d_; }
  std::span<const double> factor_values() const noexcept { return lx_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// y[row] += a.values()[a_slot]: one entry of a permuted row's
  /// upper-triangular scatter.
  struct Scatter {
    std::size_t a_slot;
    std::size_t row;
  };
  /// One step of a row's elimination: column `col` of L updates the row
  /// and receives its entry L(k, col) at `l_slot`.
  struct ReachEntry {
    std::size_t col;
    std::size_t l_slot;
  };

  // Symbolic structure (set by analyze).
  std::vector<std::size_t> perm_;
  std::vector<std::size_t> lp_;  // column pointers of L, size n+1
  std::vector<std::size_t> li_;  // row indices of L (strictly below diag)
  std::size_t pattern_nnz_ = 0;  // nonzeros of the analyzed pattern
  // Row k's schedule: scatter_[scatter_ptr_[k], scatter_ptr_[k+1]) and
  // reach_[reach_ptr_[k], reach_ptr_[k+1]), the reach in the topological
  // order of the up-looking algorithm. reach_ has one entry per nonzero of
  // L, so the schedule costs 16 bytes per factor nonzero plus 16 per
  // stored lower-triangle entry of the pattern.
  std::vector<std::size_t> scatter_ptr_, reach_ptr_;
  std::vector<Scatter> scatter_;
  std::vector<ReachEntry> reach_;
  // Numeric factor (set by factorize).
  std::vector<double> lx_;  // values of L, aligned with li_
  std::vector<double> d_;   // diagonal of D
  bool factorized_ = false;
  // Scratch reused across factorize/solve calls; no allocation in steady
  // state. y_ is all-zero between factorize rows.
  std::vector<double> y_, work_;
  std::vector<double> block_work_;  // node-major tile for solve_block
};

}  // namespace aqua::linalg
