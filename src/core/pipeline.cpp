#include "core/pipeline.hpp"

namespace aqua::core {

std::vector<fusion::LabelClique> to_label_cliques(const std::vector<fusion::Clique>& cliques,
                                                  const LabelSpace& labels) {
  std::vector<fusion::LabelClique> out;
  out.reserve(cliques.size());
  for (const auto& clique : cliques) {
    fusion::LabelClique mapped;
    mapped.confidence = clique.confidence;
    for (hydraulics::NodeId node : clique.nodes) {
      if (labels.has_label(node)) mapped.labels.push_back(labels.label_of(node));
    }
    if (!mapped.labels.empty()) out.push_back(std::move(mapped));
  }
  return out;
}

}  // namespace aqua::core
