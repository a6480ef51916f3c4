#include "linalg/dense.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace aqua::linalg {
namespace {

TEST(DenseMatrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(DenseMatrix, RowSpanViewsData) {
  Matrix m(2, 2);
  m(1, 0) = 7.0;
  auto row = m.row(1);
  EXPECT_DOUBLE_EQ(row[0], 7.0);
  row[1] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 1), 9.0);
}

TEST(DenseOps, DotAxpyNorm) {
  std::vector<double> x{1.0, 2.0}, y{3.0, -1.0};
  EXPECT_DOUBLE_EQ(dot(x, y), 1.0);
  axpy(2.0, y, x);
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
  EXPECT_DOUBLE_EQ(norm2(std::vector<double>{3.0, 4.0}), 5.0);
}

}  // namespace
}  // namespace aqua::linalg
