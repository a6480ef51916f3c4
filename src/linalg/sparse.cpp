#include "linalg/sparse.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace aqua::linalg {

void CsrMatrix::multiply_into(std::span<const double> x, std::span<double> y) const {
  AQUA_REQUIRE(x.size() == rows(), "CSR multiply dimension mismatch");
  AQUA_REQUIRE(y.size() == rows(), "CSR multiply output dimension mismatch");
  AQUA_REQUIRE(x.data() != y.data(), "CSR multiply: x and y must not alias");
  for (std::size_t r = 0; r < rows(); ++r) {
    double sum = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      sum += values_[k] * x[col_idx_[k]];
    }
    y[r] = sum;
  }
}

void CsrMatrix::zero_values() noexcept { std::fill(values_.begin(), values_.end(), 0.0); }

void CooBuilder::add(std::size_t row, std::size_t col, double value) {
  AQUA_REQUIRE(row < n_ && col < n_, "COO entry out of range");
  entries_.push_back({row, col, value});
}

CsrMatrix CooBuilder::build() const {
  std::vector<Entry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  CsrMatrix m;
  m.row_ptr_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i + 1;
    double sum = sorted[i].value;
    while (j < sorted.size() && sorted[j].row == sorted[i].row && sorted[j].col == sorted[i].col) {
      sum += sorted[j].value;
      ++j;
    }
    m.col_idx_.push_back(sorted[i].col);
    m.values_.push_back(sum);
    ++m.row_ptr_[sorted[i].row + 1];
    i = j;
  }
  for (std::size_t r = 0; r < n_; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

}  // namespace aqua::linalg
