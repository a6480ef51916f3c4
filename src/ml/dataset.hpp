// Multi-label datasets for the profile model. Each sample is one simulated
// failure scenario: features are the Δ-readings of the sensor set (plus
// optional static topology descriptors T), labels are the per-junction
// leak indicators y_v ∈ {0, 1} (Sec. III-B). The multi-output problem is
// decomposed into one binary problem per label ("multiple binary
// classifications where a binary classifier is trained for each node
// independently").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "linalg/dense.hpp"

namespace aqua::io {
class BinaryWriter;
class BinaryReader;
}  // namespace aqua::io

namespace aqua::ml {

using linalg::Matrix;
using Labels = std::vector<std::uint8_t>;

struct MultiLabelDataset {
  Matrix features;                  // samples x feature-dim
  std::vector<Labels> labels;       // samples x label-dim
  std::vector<std::string> feature_names;  // optional, size feature-dim or empty

  std::size_t num_samples() const noexcept { return features.rows(); }
  std::size_t num_features() const noexcept { return features.cols(); }
  std::size_t num_labels() const noexcept { return labels.empty() ? 0 : labels.front().size(); }

  /// Column of label matrix for one node.
  Labels label_column(std::size_t label_index) const;

  /// Validates internal consistency; throws InvalidArgument on violation.
  void check() const;
};

/// Column-wise standardization fitted on a training matrix and applied to
/// any matrix/vector with the same schema. Constant columns map to 0.
class StandardScaler {
 public:
  void fit(const Matrix& x);
  Matrix transform(const Matrix& x) const;
  std::vector<double> transform_row(std::span<const double> row) const;
  /// Allocation-free variant; `out` is resized to the schema width.
  void transform_row_into(std::span<const double> row, std::vector<double>& out) const;
  bool fitted() const noexcept { return !mean_.empty(); }

  /// Fitted state accessors (shared-input-map equality checks).
  const std::vector<double>& mean() const noexcept { return mean_; }
  const std::vector<double>& inv_std() const noexcept { return inv_std_; }
  /// Bitwise equality of the fitted state — two identical() scalers
  /// produce bit-identical transform output for the same input.
  bool identical(const StandardScaler& other) const noexcept {
    return mean_ == other.mean_ && inv_std_ == other.inv_std_;
  }

  void save(io::BinaryWriter& writer) const;
  void load(io::BinaryReader& reader);

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace aqua::ml
