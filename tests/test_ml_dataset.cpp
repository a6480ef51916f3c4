#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace aqua::ml {
namespace {

MultiLabelDataset make_data(std::size_t n = 20, std::size_t d = 3, std::size_t labels = 2) {
  MultiLabelDataset data;
  data.features = Matrix(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      data.features(r, c) = static_cast<double>(r * d + c);
    }
  }
  data.labels.assign(n, Labels(labels, 0));
  for (std::size_t r = 0; r < n; ++r) data.labels[r][0] = r % 2;
  return data;
}

TEST(Dataset, ShapeAccessors) {
  const auto data = make_data(10, 4, 3);
  EXPECT_EQ(data.num_samples(), 10u);
  EXPECT_EQ(data.num_features(), 4u);
  EXPECT_EQ(data.num_labels(), 3u);
}

TEST(Dataset, LabelColumnExtraction) {
  const auto data = make_data(6);
  const Labels col = data.label_column(0);
  EXPECT_EQ(col, (Labels{0, 1, 0, 1, 0, 1}));
  EXPECT_THROW(data.label_column(5), InvalidArgument);
}

TEST(Dataset, CheckCatchesRaggedLabels) {
  auto data = make_data(4);
  data.labels[2].push_back(1);
  EXPECT_THROW(data.check(), InvalidArgument);
}

TEST(Dataset, CheckCatchesNonBinaryLabels) {
  auto data = make_data(4);
  data.labels[1][0] = 7;
  EXPECT_THROW(data.check(), InvalidArgument);
}

TEST(Dataset, CheckCatchesNonFiniteFeatures) {
  auto data = make_data(4);
  data.features(1, 1) = std::nan("");
  EXPECT_THROW(data.check(), InvalidArgument);
}

TEST(Scaler, StandardizesColumns) {
  Matrix x(4, 2);
  const double col0[] = {1.0, 2.0, 3.0, 4.0};
  for (std::size_t r = 0; r < 4; ++r) {
    x(r, 0) = col0[r];
    x(r, 1) = 5.0;  // constant column
  }
  StandardScaler scaler;
  scaler.fit(x);
  const Matrix z = scaler.transform(x);
  double mean0 = 0.0, var0 = 0.0;
  for (std::size_t r = 0; r < 4; ++r) mean0 += z(r, 0);
  mean0 /= 4.0;
  for (std::size_t r = 0; r < 4; ++r) var0 += (z(r, 0) - mean0) * (z(r, 0) - mean0);
  EXPECT_NEAR(mean0, 0.0, 1e-12);
  EXPECT_NEAR(var0 / 4.0, 1.0, 1e-12);
  // Constant column maps to zero, not NaN.
  for (std::size_t r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(z(r, 1), 0.0);
}

TEST(Scaler, TransformRowMatchesMatrix) {
  Matrix x(3, 2);
  x(0, 0) = 1;
  x(1, 0) = 2;
  x(2, 0) = 3;
  x(0, 1) = -1;
  x(1, 1) = 0;
  x(2, 1) = 1;
  StandardScaler scaler;
  scaler.fit(x);
  const Matrix z = scaler.transform(x);
  const auto row = scaler.transform_row(x.row(1));
  EXPECT_DOUBLE_EQ(row[0], z(1, 0));
  EXPECT_DOUBLE_EQ(row[1], z(1, 1));
}

TEST(Scaler, RequiresFitAndSchema) {
  StandardScaler scaler;
  Matrix x(2, 2, 1.0);
  EXPECT_THROW(scaler.transform(x), InvalidArgument);
  scaler.fit(x);
  Matrix wrong(2, 3, 1.0);
  EXPECT_THROW(scaler.transform(wrong), InvalidArgument);
}

}  // namespace
}  // namespace aqua::ml
