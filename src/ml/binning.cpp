#include "ml/binning.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace aqua::ml {

namespace detail {

std::vector<double> quantile_cuts(std::span<const double> sorted_column, std::size_t max_bins) {
  const std::size_t n = sorted_column.size();
  std::vector<double> cuts;
  for (std::size_t b = 1; b < max_bins; ++b) {
    const std::size_t idx = b * (n - 1) / max_bins;
    const double cut = sorted_column[idx];
    if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
  }
  // Drop a trailing cut equal to the maximum (it would create an empty
  // top bin).
  while (!cuts.empty() && cuts.back() >= sorted_column.back()) cuts.pop_back();
  return cuts;
}

}  // namespace detail

void BinnedDataset::fit(const linalg::Matrix& x, std::size_t max_bins, bool parallel) {
  AQUA_REQUIRE(x.rows() > 0, "cannot bin an empty matrix");
  AQUA_REQUIRE(max_bins >= 2 && max_bins <= kMaxBins, "max_bins out of range");
  const std::size_t n = x.rows(), d = x.cols();
  rows_ = n;
  max_bins_ = max_bins;
  cuts_.assign(d, {});
  codes_.assign(n * d, 0);

  // Sorts feature f's column, derives its cuts, and encodes every sample
  // into the feature's column block. Features are independent.
  auto bin_one = [&](std::size_t f) {
    std::vector<double> column(n);
    for (std::size_t r = 0; r < n; ++r) column[r] = x(r, f);
    std::sort(column.begin(), column.end());
    cuts_[f] = detail::quantile_cuts(column, max_bins);
    const std::vector<double>& cuts = cuts_[f];
    std::uint8_t* col = codes_.data() + f * n;
    for (std::size_t r = 0; r < n; ++r) {
      // v <= cuts[k] -> bin k; v > all cuts -> last bin.
      const auto it = std::lower_bound(cuts.begin(), cuts.end(), x(r, f));
      col[r] = static_cast<std::uint8_t>(it - cuts.begin());
    }
  };
  if (parallel) {
    ThreadPool::global().parallel_for(d, bin_one);
  } else {
    for (std::size_t f = 0; f < d; ++f) bin_one(f);
  }
}

}  // namespace aqua::ml
