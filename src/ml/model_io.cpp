#include "ml/model_io.hpp"

#include "ml/gradient_boosting.hpp"
#include "ml/hybrid_rsl.hpp"
#include "ml/linear_models.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"

namespace aqua::ml {

std::unique_ptr<BinaryClassifier> make_classifier_by_name(const std::string& name) {
  if (name == "LinearR") return std::make_unique<LinearRegressionClassifier>();
  if (name == "LogisticR") return std::make_unique<LogisticRegressionClassifier>();
  if (name == "GB") return std::make_unique<GradientBoostingClassifier>();
  if (name == "RF") return std::make_unique<RandomForestClassifier>();
  if (name == "SVM") return std::make_unique<SvmClassifier>();
  if (name == "HybridRSL") return std::make_unique<HybridRslClassifier>();
  throw io::SerializationError("unknown classifier kind tag: '" + name + "'");
}

void write_matrix(io::BinaryWriter& writer, const linalg::Matrix& matrix) {
  writer.write_u64(matrix.rows());
  writer.write_u64(matrix.cols());
  writer.write_f64_vector(matrix.data());
}

linalg::Matrix read_matrix(io::BinaryReader& reader) {
  const std::uint64_t rows = reader.read_u64();
  const std::uint64_t cols = reader.read_u64();
  const std::vector<double> data = reader.read_f64_vector();
  // Checked by division so a crafted shape cannot wrap rows * cols.
  const bool fits =
      cols == 0 ? data.empty() : data.size() % cols == 0 && data.size() / cols == rows;
  if (!fits) {
    throw io::SerializationError("malformed matrix: shape/data mismatch");
  }
  linalg::Matrix matrix(rows, cols);
  matrix.data() = data;
  return matrix;
}

}  // namespace aqua::ml
