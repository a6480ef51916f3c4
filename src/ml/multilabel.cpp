#include "ml/multilabel.hpp"

#include <array>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "ml/binning.hpp"
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

  classifiers_.clear();
  classifiers_.resize(labels);
  for (auto& c : classifiers_) c = factory_();

  // Shared-store fit protocol: bin the feature matrix and fit the SVM
  // feature map once each, when every label's classifier agrees on the
  // bin budget / map. Both are immutable after fit, so concurrent
  // per-label fits read them freely.
  FitStore store;
  const std::size_t bins = classifiers_.front()->fit_store_bins();
  const SvmConfig* svm = classifiers_.front()->fit_store_svm_map();
  bool bins_agree = bins > 0;
  bool svm_agree = svm != nullptr;
  for (const auto& c : classifiers_) {
    bins_agree = bins_agree && c->fit_store_bins() == bins;
    const SvmConfig* other = c->fit_store_svm_map();
    svm_agree = svm_agree && other != nullptr && SvmFeatureMap::same_map(*svm, *other);
  }
  if (bins_agree) store.bins.fit(data.features, bins);
  if (svm_agree) store.svm_map = SvmFeatureMap::fit(data.features, *svm, store.svm_features);

  // Every consumer computes what the store lacks itself, so an empty
  // store is a plain fit.
  auto train_one = [&](std::size_t v) {
    classifiers_[v]->fit_with_store(data.features, data.label_column(v), store);
  };
  if (parallel) {
    ThreadPool::global().parallel_for(labels, train_one);
  } else {
    for (std::size_t v = 0; v < labels; ++v) train_one(v);
  }
  detect_shared_input_map();
}

void MultiLabelModel::detect_shared_input_map() {
  shared_map_owner_ = kNoSharedMap;
  for (std::size_t candidate = 0; candidate < classifiers_.size(); ++candidate) {
    bool accepted_by_all = true;
    for (const auto& c : classifiers_) {
      if (!c->accepts_input_map(*classifiers_[candidate])) {
        accepted_by_all = false;
        break;
      }
    }
    if (accepted_by_all) {
      shared_map_owner_ = candidate;
      return;
    }
  }
}

std::vector<double> MultiLabelModel::predict_proba(std::span<const double> x) const {
  AQUA_REQUIRE(fitted(), "predict on unfitted model");
  std::vector<double> probabilities(classifiers_.size());
  for (std::size_t v = 0; v < classifiers_.size(); ++v) {
    probabilities[v] = classifiers_[v]->predict_proba(x);
  }
  return probabilities;
}

Labels MultiLabelModel::predict(std::span<const double> x) const {
  AQUA_REQUIRE(fitted(), "predict on unfitted model");
  Labels labels(classifiers_.size());
  for (std::size_t v = 0; v < classifiers_.size(); ++v) {
    labels[v] = classifiers_[v]->predict(x) ? 1 : 0;
  }
  return labels;
}

void MultiLabelModel::predict_proba_batch_into(const Matrix& x, Matrix& out,
                                               bool parallel) const {
  AQUA_REQUIRE(fitted(), "predict on unfitted model");
  const std::size_t labels = classifiers_.size();
  if (out.rows() != x.rows() || out.cols() != labels) out = Matrix(x.rows(), labels);

  if (shared_map_owner_ != kNoSharedMap) {
    // Hoisted shared map + blocked tile traversal: one map_input per
    // snapshot, then a tile of kPredictTileRows rows advances through one
    // label head at a time, so tree-backed heads amortize every node load
    // across the tile (see BinaryClassifier's tile protocol). Chunked so
    // each task reuses its workspaces across all its tiles.
    constexpr std::size_t kTile = BinaryClassifier::kPredictTileRows;
    const BinaryClassifier& owner = *classifiers_[shared_map_owner_];
    auto& pool = ThreadPool::global();
    const std::size_t chunks =
        parallel ? std::max<std::size_t>(1, std::min(pool.size(), x.rows())) : 1;
    const std::size_t per_chunk = (x.rows() + chunks - 1) / std::max<std::size_t>(chunks, 1);
    auto run_chunk = [&](std::size_t chunk) {
      std::array<PredictWorkspace, kTile> ws;
      std::array<const double*, kTile> rows{};
      const std::size_t begin = chunk * per_chunk;
      const std::size_t end = std::min(begin + per_chunk, x.rows());
      for (std::size_t tile = begin; tile < end; tile += kTile) {
        const std::size_t n = std::min(kTile, end - tile);
        for (std::size_t i = 0; i < n; ++i) {
          owner.map_input(x.row(tile + i), ws[i]);
          rows[i] = ws[i].mapped.data();
        }
        const std::size_t dim = ws[0].mapped.size();
        double* dst = &out(tile, 0);
        for (std::size_t v = 0; v < labels; ++v) {
          classifiers_[v]->predict_proba_mapped_tile(rows.data(), n, dim, dst + v, labels);
        }
      }
    };
    if (chunks > 1) {
      pool.parallel_for(chunks, run_chunk);
    } else {
      run_chunk(0);
    }
    return;
  }

  // No shared map: label-major sweep so each classifier's fitted state
  // stays cache-hot across the whole batch.
  auto run_label = [&](std::size_t v) {
    const BinaryClassifier& c = *classifiers_[v];
    for (std::size_t r = 0; r < x.rows(); ++r) out(r, v) = c.predict_proba(x.row(r));
  };
  if (parallel) {
    ThreadPool::global().parallel_for(labels, run_label);
  } else {
    for (std::size_t v = 0; v < labels; ++v) run_label(v);
  }
}

ForestCompileReport MultiLabelModel::forest_compile_report() const {
  ForestCompileReport total;
  for (const auto& c : classifiers_) {
    const CompiledForest* forest = c->compiled_forest();
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

const BinaryClassifier& MultiLabelModel::classifier(std::size_t label) const {
  AQUA_REQUIRE(label < classifiers_.size(), "label index out of range");
  return *classifiers_[label];
}

void MultiLabelModel::save(io::BinaryWriter& writer) const {
  AQUA_REQUIRE(fitted(), "save on unfitted model");
  // The states go to a scratch buffer first, collecting the distinct SVM
  // feature maps they index, so the map table can precede them.
  SvmMapTable maps;
  io::BinaryWriter states;
  for (const auto& c : classifiers_) save_classifier(states, *c, maps);
  writer.write_u64(classifiers_.size());
  maps.save(writer);
  writer.write_bytes(states.buffer());
}

MultiLabelModel MultiLabelModel::load(io::BinaryReader& reader) {
  // No classifier frame is shorter than a kind tag's length prefix plus
  // the shortest tag ("GB", "RF"); a label count the payload cannot hold
  // is rejected before anything is reserved for it.
  constexpr std::size_t kMinClassifierBytes = 4 + 2;
  const std::uint64_t count = reader.read_u64();
  if (count == 0 || count > (std::uint64_t{1} << 24) ||
      count > reader.remaining() / kMinClassifierBytes) {
    throw io::SerializationError("malformed multi-label model: label count");
  }
  const SvmMapTable maps = SvmMapTable::load(reader);
  MultiLabelModel model;
  model.classifiers_.reserve(count);
  for (std::uint64_t v = 0; v < count; ++v) {
    model.classifiers_.push_back(load_classifier(reader, maps));
  }
  // Rebuild the factory from the first classifier so fit() keeps working on
  // a loaded model (all labels share one configuration by construction).
  auto prototype =
      std::shared_ptr<BinaryClassifier>(model.classifiers_.front()->clone_config());
  model.factory_ = [prototype] { return prototype->clone_config(); };
  model.detect_shared_input_map();
  return model;
}

}  // namespace aqua::ml
