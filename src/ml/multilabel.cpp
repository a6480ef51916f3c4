#include "ml/multilabel.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ml/model_io.hpp"
#include "ml/svm.hpp"

namespace aqua::ml {

MultiLabelModel::MultiLabelModel(ClassifierFactory factory) : factory_(std::move(factory)) {
  AQUA_REQUIRE(static_cast<bool>(factory_), "classifier factory must be callable");
}

void MultiLabelModel::fit(const MultiLabelDataset& data, bool parallel) {
  AQUA_REQUIRE(static_cast<bool>(factory_), "fit() requires a classifier factory");
  data.check();
  AQUA_REQUIRE(data.num_samples() > 0, "empty training set");
  const std::size_t labels = data.num_labels();
  AQUA_REQUIRE(labels > 0, "dataset has no labels");

  // Single-class labels become constants; every other label is a clone of
  // the one prototype.
  const std::unique_ptr<BinaryClassifier> prototype = factory_();
  kind_ = prototype->name();
  std::vector<std::size_t> positives(labels, 0);
  for (const Labels& row : data.labels) {
    for (std::size_t v = 0; v < labels; ++v) positives[v] += row[v] != 0;
  }
  classifiers_.clear();
  classifiers_.resize(labels);
  constant_.assign(labels, 0.0);
  bool any_fitted = false;
  for (std::size_t v = 0; v < labels; ++v) {
    if (positives[v] == 0 || positives[v] == data.num_samples()) {
      constant_[v] = positives[v] == 0 ? 0.0 : 1.0;
    } else {
      classifiers_[v] = prototype->clone_config();
      any_fitted = true;
    }
  }

  // The prototype's binning and SVM feature map, built once. Both are
  // immutable after fit, so concurrent per-label fits read them freely.
  FitStore store;
  if (any_fitted) store = make_fit_store(*prototype, data.features);
  svm_map_ = store.svm_map;
  auto train_one = [&](std::size_t v) {
    if (classifiers_[v]) classifiers_[v]->fit(data.features, data.label_column(v), store);
  };
  if (parallel) {
    ThreadPool::global().parallel_for(labels, train_one);
  } else {
    for (std::size_t v = 0; v < labels; ++v) train_one(v);
  }
}

const BinaryClassifier* MultiLabelModel::map_owner() const noexcept {
  for (const auto& c : classifiers_) {
    if (c) return c.get();
  }
  return nullptr;
}

std::vector<double> MultiLabelModel::predict_proba(std::span<const double> x) const {
  AQUA_REQUIRE(fitted(), "predict on unfitted model");
  std::vector<double> probabilities(classifiers_.size());
  for (std::size_t v = 0; v < classifiers_.size(); ++v) {
    probabilities[v] = classifiers_[v] ? classifiers_[v]->predict_proba(x) : constant_[v];
  }
  return probabilities;
}

void MultiLabelModel::predict_proba_batch_into(const Matrix& x, Matrix& out,
                                               bool parallel) const {
  AQUA_REQUIRE(fitted(), "predict on unfitted model");
  const std::size_t labels = classifiers_.size();
  if (out.rows() != x.rows() || out.cols() != labels) out = Matrix(x.rows(), labels);

  // Hoisted shared map + blocked tile traversal: one map_input per
  // snapshot, then a tile of kPredictTileRows rows advances through one
  // label head at a time, so tree-backed heads amortize every node load
  // across the tile (see BinaryClassifier's tile protocol). Chunked so
  // each task reuses its workspaces across all its tiles.
  constexpr std::size_t kTile = BinaryClassifier::kPredictTileRows;
  const BinaryClassifier* owner = map_owner();
  auto& pool = ThreadPool::global();
  const std::size_t chunks =
      parallel ? std::max<std::size_t>(1, std::min(pool.size(), x.rows())) : 1;
  const std::size_t per_chunk = (x.rows() + chunks - 1) / chunks;
  auto run_chunk = [&](std::size_t chunk) {
    std::array<PredictWorkspace, kTile> ws;
    std::array<const double*, kTile> rows{};
    const std::size_t begin = chunk * per_chunk;
    const std::size_t end = std::min(begin + per_chunk, x.rows());
    for (std::size_t tile = begin; tile < end; tile += kTile) {
      const std::size_t n = std::min(kTile, end - tile);
      std::size_t dim = 0;
      if (owner != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
          owner->map_input(x.row(tile + i), ws[i]);
          rows[i] = ws[i].mapped.data();
        }
        dim = ws[0].mapped.size();
      }
      double* dst = &out(tile, 0);
      for (std::size_t v = 0; v < labels; ++v) {
        if (classifiers_[v]) {
          classifiers_[v]->predict_proba_mapped_tile(rows.data(), n, dim, dst + v, labels);
        } else {
          for (std::size_t i = 0; i < n; ++i) dst[i * labels + v] = constant_[v];
        }
      }
    }
  };
  if (chunks > 1) {
    pool.parallel_for(chunks, run_chunk);
  } else {
    run_chunk(0);
  }
}

ForestCompileReport MultiLabelModel::forest_compile_report() const {
  ForestCompileReport total;
  for (const auto& c : classifiers_) {
    const CompiledForest* forest = c ? c->compiled_forest() : nullptr;
    if (forest == nullptr) continue;
    const ForestCompileReport r = forest->report();
    total.classifiers += r.classifiers;
    total.trees += r.trees;
    total.internal_nodes += r.internal_nodes;
    total.leaves += r.leaves;
    total.seconds += r.seconds;
  }
  return total;
}

const BinaryClassifier* MultiLabelModel::classifier(std::size_t label) const {
  AQUA_REQUIRE(label < classifiers_.size(), "label index out of range");
  return classifiers_[label].get();
}

void MultiLabelModel::save(io::BinaryWriter& writer) const {
  AQUA_REQUIRE(fitted(), "save on unfitted model");
  writer.write_string(kind_);
  writer.write_bool(svm_map_ != nullptr);
  if (svm_map_ != nullptr) svm_map_->save(writer);
  writer.write_u64(classifiers_.size());
  for (std::size_t v = 0; v < classifiers_.size(); ++v) {
    writer.write_bool(classifiers_[v] != nullptr);
    if (classifiers_[v]) {
      classifiers_[v]->save_state(writer);
    } else {
      writer.write_f64(constant_[v]);
    }
  }
}

MultiLabelModel MultiLabelModel::load(io::BinaryReader& reader) {
  MultiLabelModel model;
  model.kind_ = reader.read_string();
  std::unique_ptr<BinaryClassifier> prototype = make_classifier_by_name(model.kind_);
  if (reader.read_bool()) {
    if (prototype->fit_store_svm_map() == nullptr) {
      throw io::SerializationError("malformed multi-label model: a feature map for " +
                                   model.kind_ + ", which takes none");
    }
    model.svm_map_ = SvmFeatureMap::load(reader);
  }

  // No label is shorter than a constant one (flag + rate); a label count
  // the payload cannot hold is rejected before anything is allocated.
  constexpr std::size_t kMinLabelBytes = 1 + 8;
  const std::uint64_t count = reader.read_u64();
  if (count == 0 || count > (std::uint64_t{1} << 24) ||
      count > reader.remaining() / kMinLabelBytes) {
    throw io::SerializationError("malformed multi-label model: label count");
  }
  model.classifiers_.resize(count);
  model.constant_.assign(count, 0.0);
  for (std::uint64_t v = 0; v < count; ++v) {
    if (reader.read_bool()) {
      model.classifiers_[v] = prototype->clone_config();
      model.classifiers_[v]->load_state(reader, model.svm_map_);
      continue;
    }
    const double rate = reader.read_f64();
    if (rate != 0.0 && rate != 1.0) {
      throw io::SerializationError("malformed multi-label model: constant label rate");
    }
    model.constant_[v] = rate;
  }
  // The batch path maps every row with the first fitted label's map.
  const BinaryClassifier* owner = model.map_owner();
  for (const auto& c : model.classifiers_) {
    if (c != nullptr && !c->accepts_input_map(*owner)) {
      throw io::SerializationError(
          "malformed multi-label model: a label does not share the first fitted label's input "
          "map");
    }
  }
  // Refit rebuilds the factory from the first fitted label's configuration
  // (the kind's defaults when every label is constant).
  if (owner != nullptr) prototype = owner->clone_config();
  model.factory_ = [shared = std::shared_ptr<const BinaryClassifier>(std::move(prototype))] {
    return shared->clone_config();
  };
  return model;
}

}  // namespace aqua::ml
