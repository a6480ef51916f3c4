// Classifier framing helpers for model artifacts: the kind tag (the
// stable name() string, written once per model payload by
// MultiLabelModel::save) reinstantiates the right concrete type before
// its states load. Also hosts the dense-matrix framing shared by
// classifiers that persist linalg::Matrix members.
#pragma once

#include <memory>
#include <string>

#include "io/binary.hpp"
#include "linalg/dense.hpp"
#include "ml/classifier.hpp"

namespace aqua::ml {

/// Default-configured instance for a kind tag ("LinearR", "LogisticR",
/// "GB", "RF", "SVM", "HybridRSL"); throws io::SerializationError otherwise.
std::unique_ptr<BinaryClassifier> make_classifier_by_name(const std::string& name);

void write_matrix(io::BinaryWriter& writer, const linalg::Matrix& matrix);
linalg::Matrix read_matrix(io::BinaryReader& reader);

}  // namespace aqua::ml
