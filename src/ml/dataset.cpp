#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "io/binary.hpp"

namespace aqua::ml {

Labels MultiLabelDataset::label_column(std::size_t label_index) const {
  AQUA_REQUIRE(label_index < num_labels(), "label index out of range");
  Labels column(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) column[i] = labels[i][label_index];
  return column;
}

void MultiLabelDataset::check() const {
  AQUA_REQUIRE(labels.size() == features.rows(), "label rows must match feature rows");
  for (const auto& row : labels) {
    AQUA_REQUIRE(row.size() == num_labels(), "ragged label matrix");
    for (auto v : row) AQUA_REQUIRE(v == 0 || v == 1, "labels must be binary");
  }
  for (double v : features.data()) {
    AQUA_REQUIRE(std::isfinite(v), "non-finite feature value");
  }
}

void StandardScaler::fit(const Matrix& x) {
  AQUA_REQUIRE(x.rows() > 0, "cannot fit scaler on empty matrix");
  const std::size_t d = x.cols();
  mean_.assign(d, 0.0);
  inv_std_.assign(d, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < d; ++c) mean_[c] += row[c];
  }
  for (double& m : mean_) m /= static_cast<double>(x.rows());
  std::vector<double> var(d, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = x.row(r);
    for (std::size_t c = 0; c < d; ++c) {
      const double dv = row[c] - mean_[c];
      var[c] += dv * dv;
    }
  }
  for (std::size_t c = 0; c < d; ++c) {
    const double sd = std::sqrt(var[c] / static_cast<double>(x.rows()));
    inv_std_[c] = sd > 1e-12 ? 1.0 / sd : 0.0;
  }
}

Matrix StandardScaler::transform(const Matrix& x) const {
  AQUA_REQUIRE(fitted(), "scaler not fitted");
  AQUA_REQUIRE(x.cols() == mean_.size(), "scaler schema mismatch");
  Matrix out(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto src = x.row(r);
    auto dst = out.row(r);
    for (std::size_t c = 0; c < x.cols(); ++c) dst[c] = (src[c] - mean_[c]) * inv_std_[c];
  }
  return out;
}

std::vector<double> StandardScaler::transform_row(std::span<const double> row) const {
  std::vector<double> out;
  transform_row_into(row, out);
  return out;
}

void StandardScaler::transform_row_into(std::span<const double> row,
                                        std::vector<double>& out) const {
  AQUA_REQUIRE(fitted(), "scaler not fitted");
  AQUA_REQUIRE(row.size() == mean_.size(), "scaler schema mismatch");
  out.resize(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) out[c] = (row[c] - mean_[c]) * inv_std_[c];
}

void StandardScaler::save(io::BinaryWriter& writer) const {
  writer.write_f64_vector(mean_);
  writer.write_f64_vector(inv_std_);
}

void StandardScaler::load(io::BinaryReader& reader) {
  mean_ = reader.read_f64_vector();
  inv_std_ = reader.read_f64_vector();
  if (inv_std_.size() != mean_.size()) {
    throw io::SerializationError("scaler mean/std length mismatch");
  }
}

}  // namespace aqua::ml
