// Polymorphic classifier framing for model artifacts: a classifier is
// written as its kind tag (the stable name() string) followed by its
// save_state() payload, so a reader can reinstantiate the right concrete
// type before loading. Also hosts the dense-matrix framing shared by
// classifiers that persist linalg::Matrix members.
#pragma once

#include <memory>
#include <string>

#include "io/binary.hpp"
#include "linalg/dense.hpp"
#include "ml/classifier.hpp"

namespace aqua::ml {

/// Kind tag + state payload; shared SVM feature maps go to `maps`.
void save_classifier(io::BinaryWriter& writer, const BinaryClassifier& classifier,
                     SvmMapTable& maps);

/// Reinstantiates the concrete classifier named by the kind tag and loads
/// its state, resolving map indices in `maps`; throws
/// io::SerializationError for unknown tags.
std::unique_ptr<BinaryClassifier> load_classifier(io::BinaryReader& reader,
                                                  const SvmMapTable& maps);

/// Default-configured instance for a kind tag ("LinearR", "LogisticR",
/// "GB", "RF", "SVM", "HybridRSL"); throws io::SerializationError otherwise.
std::unique_ptr<BinaryClassifier> make_classifier_by_name(const std::string& name);

void write_matrix(io::BinaryWriter& writer, const linalg::Matrix& matrix);
linalg::Matrix read_matrix(io::BinaryReader& reader);

}  // namespace aqua::ml
