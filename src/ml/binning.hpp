// Quantile feature binning for histogram-based tree construction (the
// LightGBM/xgboost-style optimization). Continuous features are
// discretized into at most 255 quantile bins (uint8 codes); tree split
// search then scans bin histograms in O(n + bins) per feature instead of
// sorting samples per node. Thresholds reported by splits are real
// feature values (bin boundaries), so prediction works on raw, unbinned
// inputs.
//
// BinnedDataset is the one store: a column-block layout (codes_[f*n+r],
// one contiguous uint8 column per feature), built once per training
// matrix and shared read-only across every label's classifier, every RF
// bootstrap tree and every GB round. The contiguous columns are what
// make the histogram scan in RegressionTree::fit_binned stream through
// cache lines instead of striding across them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense.hpp"

namespace aqua::ml {

namespace detail {
/// Quantile cut points of an ascending-sorted column: at most max_bins-1
/// strictly increasing boundaries, with duplicates collapsed (constant
/// features end up with zero cuts = one bin) and any trailing cut equal
/// to the maximum dropped (it would create an empty top bin).
std::vector<double> quantile_cuts(std::span<const double> sorted_column, std::size_t max_bins);
}  // namespace detail

/// Shared column-block binned feature store. Immutable after fit(); every
/// accessor is const and reentrant, so one store may be read concurrently
/// by any number of tree fits without synchronization (the fit-store
/// protocol on BinaryClassifier relies on this).
class BinnedDataset {
 public:
  /// uint8 headroom: codes are bin indices in [0, bins-1], bins <= 255.
  static constexpr std::size_t kMaxBins = 255;
  /// Default bin budget (the classic LightGBM sweet spot).
  static constexpr std::size_t kDefaultBins = 64;

  BinnedDataset() = default;

  /// Bins every column of `x` into at most `max_bins` quantile bins and
  /// stores the codes feature-major (one contiguous column block per
  /// feature). Features are independent, so `parallel` runs them on the
  /// global ThreadPool, bit-identical to the serial order.
  void fit(const linalg::Matrix& x, std::size_t max_bins = kDefaultBins, bool parallel = true);

  bool fitted() const noexcept { return rows_ > 0; }
  std::size_t num_samples() const noexcept { return rows_; }
  std::size_t num_features() const noexcept { return cuts_.size(); }
  /// The bin budget this store was fitted with (fit's max_bins).
  std::size_t max_bins() const noexcept { return max_bins_; }
  /// True when this store binned a matrix of x's shape at `max_bins`.
  bool matches(const linalg::Matrix& x, std::size_t max_bins) const noexcept {
    return fitted() && rows_ == x.rows() && num_features() == x.cols() && max_bins_ == max_bins;
  }

  /// Number of distinct bins for a feature (>= 1).
  std::size_t bins(std::size_t feature) const { return cuts_[feature].size() + 1; }

  /// Contiguous block of all samples' codes for one feature.
  std::span<const std::uint8_t> column(std::size_t feature) const {
    return {codes_.data() + feature * rows_, rows_};
  }

  /// Encoded bin of (row, feature); column(f)[r] without the span.
  std::uint8_t code(std::size_t row, std::size_t feature) const {
    return codes_[feature * rows_ + row];
  }

  /// Upper boundary value of `bin` for a feature: samples with
  /// value <= boundary fall in bins [0, bin]. Valid for bin < bins()-1.
  double upper_boundary(std::size_t feature, std::size_t bin) const {
    return cuts_[feature][bin];
  }

  const std::vector<double>& cuts(std::size_t feature) const { return cuts_[feature]; }

 private:
  std::size_t rows_ = 0;
  std::size_t max_bins_ = 0;
  std::vector<std::vector<double>> cuts_;  // per feature, ascending, unique
  std::vector<std::uint8_t> codes_;        // feature-major column blocks
};

}  // namespace aqua::ml
