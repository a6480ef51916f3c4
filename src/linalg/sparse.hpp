// Sparse linear algebra for the hydraulic solver. The Global Gradient
// Algorithm solves an SPD system whose sparsity pattern is the node
// adjacency of the water network, so a CSR matrix with a coordinate-based
// builder covers everything the solver needs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aqua::linalg {

/// Compressed-sparse-row matrix (square, as used for SPD node systems).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  std::size_t rows() const noexcept { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  std::size_t nnz() const noexcept { return values_.size(); }

  /// y = A x into caller storage (`y.size() == rows()`). `x` and `y` must
  /// not alias.
  void multiply_into(std::span<const double> x, std::span<double> y) const;

  /// Sets every stored value to zero, keeping the pattern (the hydraulic
  /// solver refills the same pattern every Newton iteration).
  void zero_values() noexcept;

  std::span<const std::size_t> row_pointers() const noexcept { return row_ptr_; }
  std::span<const std::size_t> column_indices() const noexcept { return col_idx_; }
  std::span<const double> values() const noexcept { return values_; }
  std::span<double> values() noexcept { return values_; }

  friend class CooBuilder;

 private:
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// Accumulating coordinate-format builder: duplicate (row, col) insertions
/// are summed, which matches how element contributions assemble the GGA
/// matrix.
class CooBuilder {
 public:
  explicit CooBuilder(std::size_t n) : n_(n) {}

  void add(std::size_t row, std::size_t col, double value);
  std::size_t dimension() const noexcept { return n_; }

  /// Builds the CSR matrix (sorted column indices, duplicates merged).
  CsrMatrix build() const;

 private:
  struct Entry {
    std::size_t row;
    std::size_t col;
    double value;
  };
  std::size_t n_;
  std::vector<Entry> entries_;
};

}  // namespace aqua::linalg
