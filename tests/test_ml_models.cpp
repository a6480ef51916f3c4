#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/binary.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/hybrid_rsl.hpp"
#include "ml/linear_models.hpp"
#include "ml/metrics.hpp"
#include "ml/multilabel.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"

namespace aqua::ml {
namespace {

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<BinaryClassifier>()> factory;
};

std::vector<ModelCase> all_models() {
  return {
      {"LinearR", [] { return std::make_unique<LinearRegressionClassifier>(); }},
      {"LogisticR", [] { return std::make_unique<LogisticRegressionClassifier>(); }},
      {"GB", [] { return std::make_unique<GradientBoostingClassifier>(); }},
      {"RF", [] { return std::make_unique<RandomForestClassifier>(); }},
      {"SVM", [] { return std::make_unique<SvmClassifier>(); }},
      {"HybridRSL", [] { return std::make_unique<HybridRslClassifier>(); }},
  };
}

/// Linearly separable blobs with a margin.
std::pair<Matrix, Labels> blobs(std::size_t n, Rng& rng) {
  Matrix x(n, 4);
  Labels y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = rng.bernoulli(0.5);
    const double cx = positive ? 1.5 : -1.5;
    x(i, 0) = cx + rng.normal(0.0, 0.5);
    x(i, 1) = -cx + rng.normal(0.0, 0.5);
    x(i, 2) = rng.normal(0.0, 1.0);  // noise features
    x(i, 3) = rng.normal(0.0, 1.0);
    y[i] = positive ? 1 : 0;
  }
  return {std::move(x), std::move(y)};
}

/// Imbalanced data mimicking per-node leak labels (~5% positives).
std::pair<Matrix, Labels> imbalanced(std::size_t n, Rng& rng) {
  Matrix x(n, 4);
  Labels y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = rng.bernoulli(0.05);
    x(i, 0) = (positive ? 2.0 : 0.0) + rng.normal(0.0, 0.6);
    x(i, 1) = rng.normal(0.0, 1.0);
    x(i, 2) = rng.normal(0.0, 1.0);
    x(i, 3) = (positive ? -1.5 : 0.0) + rng.normal(0.0, 0.6);
    y[i] = positive ? 1 : 0;
  }
  return {std::move(x), std::move(y)};
}

class EveryModel : public ::testing::TestWithParam<ModelCase> {};

TEST_P(EveryModel, SeparatesBlobs) {
  Rng rng(11);
  const auto [x, y] = blobs(400, rng);
  auto model = GetParam().factory();
  model->fit(x, y);
  Rng test_rng(12);
  const auto [tx, ty] = blobs(200, test_rng);
  Labels pred(ty.size());
  for (std::size_t i = 0; i < tx.rows(); ++i) pred[i] = model->predict(tx.row(i)) ? 1 : 0;
  EXPECT_GT(binary_accuracy(pred, ty), 0.9) << GetParam().name;
}

TEST_P(EveryModel, ProbabilitiesAreValid) {
  Rng rng(13);
  const auto [x, y] = blobs(300, rng);
  auto model = GetParam().factory();
  model->fit(x, y);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double p = model->predict_proba(x.row(i));
    EXPECT_GE(p, 0.0) << GetParam().name;
    EXPECT_LE(p, 1.0) << GetParam().name;
  }
}

TEST_P(EveryModel, ProbabilitiesAreDiscriminative) {
  Rng rng(14);
  const auto [x, y] = blobs(400, rng);
  auto model = GetParam().factory();
  model->fit(x, y);
  double mean_pos = 0.0, mean_neg = 0.0;
  std::size_t n_pos = 0, n_neg = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double p = model->predict_proba(x.row(i));
    if (y[i] != 0) {
      mean_pos += p;
      ++n_pos;
    } else {
      mean_neg += p;
      ++n_neg;
    }
  }
  EXPECT_GT(mean_pos / static_cast<double>(n_pos), mean_neg / static_cast<double>(n_neg) + 0.3)
      << GetParam().name;
}

TEST_P(EveryModel, RejectsSingleClassTargets) {
  // A single-class label is MultiLabelModel's constant, never a kind's fit.
  Rng rng(10);
  const auto [x, y] = blobs(40, rng);
  (void)y;
  for (const int value : {0, 1}) {
    const Labels single(x.rows(), static_cast<std::uint8_t>(value));
    auto model = GetParam().factory();
    EXPECT_THROW(model->fit(x, single), InvalidArgument) << GetParam().name;
    EXPECT_THROW(model->fit(x, single, make_fit_store(*model, x)), InvalidArgument)
        << GetParam().name;
  }
}

/// Round trip through MultiLabelModel::save / load.
MultiLabelModel reloaded(const MultiLabelModel& model) {
  io::BinaryWriter writer;
  model.save(writer);
  io::BinaryReader reader(writer.buffer());
  MultiLabelModel loaded = MultiLabelModel::load(reader);
  reader.expect_end();
  return loaded;
}

TEST_P(EveryModel, SingleClassLabelsAreExactConstantsInAProfile) {
  // Label 0 never fires and label 1 always does; label 2 is learnable.
  // The constants hold no classifier and predict exactly their rate per
  // row, through the batch (serial and parallel) and after a round trip;
  // without label 2 no label owns an input map at all.
  Rng rng(24);
  const auto [x, y] = blobs(120, rng);
  for (const std::size_t labels : {3u, 2u}) {
    SCOPED_TRACE(labels);
    MultiLabelDataset data;
    data.features = x;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      data.labels.push_back(labels == 3 ? Labels{0, 1, y[i]} : Labels{0, 1});
    }
    MultiLabelModel fitted(GetParam().factory);
    fitted.fit(data);
    const MultiLabelModel loaded = reloaded(fitted);
    for (const MultiLabelModel* model : {&std::as_const(fitted), &loaded}) {
      EXPECT_EQ(model->kind(), GetParam().name);
      EXPECT_EQ(model->classifier(0), nullptr);
      EXPECT_EQ(model->classifier(1), nullptr);
      if (labels == 3) {
        EXPECT_NE(model->classifier(2), nullptr);
      }
      for (std::size_t i = 0; i < x.rows(); ++i) {
        const auto p = model->predict_proba(x.row(i));
        EXPECT_EQ(p[0], 0.0);
        EXPECT_EQ(p[1], 1.0);
        EXPECT_EQ(model->predict(x.row(i))[1], 1);
      }
      for (const bool parallel : {false, true}) {
        Matrix batch;
        model->predict_proba_batch_into(x, batch, parallel);
        for (std::size_t i = 0; i < x.rows(); ++i) {
          EXPECT_EQ(batch(i, 0), 0.0);
          EXPECT_EQ(batch(i, 1), 1.0);
          if (labels == 3) {
            EXPECT_EQ(batch(i, 2), fitted.predict_proba(x.row(i))[2]);
          }
        }
      }
    }
  }
}

TEST_P(EveryModel, RecallsRarePositives) {
  Rng rng(15);
  const auto [x, y] = imbalanced(1500, rng);
  auto model = GetParam().factory();
  model->fit(x, y);
  Rng test_rng(16);
  const auto [tx, ty] = imbalanced(800, test_rng);
  std::size_t tp = 0, fn = 0;
  for (std::size_t i = 0; i < tx.rows(); ++i) {
    if (ty[i] == 0) continue;
    if (model->predict(tx.row(i))) {
      ++tp;
    } else {
      ++fn;
    }
  }
  ASSERT_GT(tp + fn, 10u);
  // Balanced class weighting should keep recall well above the ~0 a naive
  // unweighted fit gives at 5% prevalence.
  EXPECT_GT(static_cast<double>(tp) / static_cast<double>(tp + fn), 0.6) << GetParam().name;
}

TEST_P(EveryModel, DeterministicAcrossRuns) {
  Rng rng(17);
  const auto [x, y] = blobs(200, rng);
  auto a = GetParam().factory();
  auto b = GetParam().factory();
  a->fit(x, y);
  b->fit(x, y);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a->predict_proba(x.row(i)), b->predict_proba(x.row(i))) << GetParam().name;
  }
}

TEST_P(EveryModel, CloneConfigProducesTrainableCopy) {
  Rng rng(18);
  const auto [x, y] = blobs(200, rng);
  auto original = GetParam().factory();
  auto clone = original->clone_config();
  clone->fit(x, y);
  Labels pred(y.size());
  for (std::size_t i = 0; i < x.rows(); ++i) pred[i] = clone->predict(x.row(i)) ? 1 : 0;
  EXPECT_GT(binary_accuracy(pred, y), 0.85) << GetParam().name;
  EXPECT_EQ(clone->name(), original->name());
}

INSTANTIATE_TEST_SUITE_P(AllClassifiers, EveryModel, ::testing::ValuesIn(all_models()),
                         [](const ::testing::TestParamInfo<ModelCase>& info) {
                           return info.param.name;
                         });

TEST(HybridRsl, UsesBothBaseLearners) {
  Rng rng(19);
  const auto [x, y] = blobs(300, rng);
  HybridRslClassifier hybrid;
  hybrid.fit(x, y);
  // Base learners must themselves be fitted and sane.
  EXPECT_GT(hybrid.forest().num_trees(), 0u);
  const double p_pos = hybrid.predict_proba(x.row(0));
  EXPECT_GE(p_pos, 0.0);
  EXPECT_LE(p_pos, 1.0);
}

TEST(Svm, DecisionValueSeparatesClasses) {
  Rng rng(20);
  const auto [x, y] = blobs(300, rng);
  SvmClassifier svm;
  svm.fit(x, y);
  double mean_pos = 0.0, mean_neg = 0.0;
  std::size_t np = 0, nn = 0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double d = svm.decision_value(x.row(i));
    if (y[i] != 0) {
      mean_pos += d;
      ++np;
    } else {
      mean_neg += d;
      ++nn;
    }
  }
  EXPECT_GT(mean_pos / static_cast<double>(np), mean_neg / static_cast<double>(nn));
}

TEST(Svm, LinearModeWorksToo) {
  SvmConfig config;
  config.rff_dimension = 0;  // plain linear SVM
  Rng rng(21);
  const auto [x, y] = blobs(300, rng);
  SvmClassifier svm(config);
  svm.fit(x, y);
  Labels pred(y.size());
  for (std::size_t i = 0; i < x.rows(); ++i) pred[i] = svm.predict(x.row(i)) ? 1 : 0;
  EXPECT_GT(binary_accuracy(pred, y), 0.9);
}

TEST(Sigmoid, NumericallyStable) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);
  EXPECT_NEAR(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-12);
}

TEST(BalancedWeights, EqualizeClassMass) {
  const Labels y{1, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  const auto [w_neg, w_pos] = balanced_class_weights(y);
  EXPECT_NEAR(w_pos * 1.0, w_neg * 9.0, 1e-12);
  EXPECT_NEAR((w_pos * 1.0 + w_neg * 9.0) / 10.0, 1.0, 1e-12);
}

TEST(BalancedWeights, SingleClassIsUnit) {
  const auto [w_neg, w_pos] = balanced_class_weights(Labels{0, 0, 0});
  EXPECT_DOUBLE_EQ(w_neg, 1.0);
  EXPECT_DOUBLE_EQ(w_pos, 1.0);
}

TEST(MultiLabel, TrainsPerLabelClassifiers) {
  Rng rng(22);
  MultiLabelDataset data;
  const std::size_t n = 300;
  data.features = Matrix(n, 2);
  data.labels.assign(n, Labels(2, 0));
  for (std::size_t i = 0; i < n; ++i) {
    data.features(i, 0) = rng.uniform(-1.0, 1.0);
    data.features(i, 1) = rng.uniform(-1.0, 1.0);
    data.labels[i][0] = data.features(i, 0) > 0.0;
    data.labels[i][1] = data.features(i, 1) > 0.0;
  }
  MultiLabelModel model([] { return std::make_unique<LogisticRegressionClassifier>(); });
  model.fit(data);
  ASSERT_TRUE(model.fitted());
  EXPECT_EQ(model.num_labels(), 2u);
  const std::vector<double> probe{0.8, -0.8};
  const Labels pred = model.predict(probe);
  EXPECT_EQ(pred[0], 1);
  EXPECT_EQ(pred[1], 0);
  const auto probabilities = model.predict_proba(probe);
  EXPECT_GT(probabilities[0], 0.5);
  EXPECT_LT(probabilities[1], 0.5);
}

TEST(MultiLabel, BatchMatchesSingle) {
  Rng rng(23);
  MultiLabelDataset data;
  data.features = Matrix(100, 2);
  data.labels.assign(100, Labels(1, 0));
  for (std::size_t i = 0; i < 100; ++i) {
    data.features(i, 0) = rng.uniform(-1.0, 1.0);
    data.features(i, 1) = rng.uniform(-1.0, 1.0);
    data.labels[i][0] = data.features(i, 0) > 0.2;
  }
  MultiLabelModel model([] { return std::make_unique<LinearRegressionClassifier>(); });
  model.fit(data);
  // The batched path thresholded at 0.5 is predict(), row by row.
  Matrix proba;
  model.predict_proba_batch_into(data.features, proba, false);
  for (std::size_t i = 0; i < data.features.rows(); ++i) {
    Labels batch(proba.cols());
    for (std::size_t v = 0; v < proba.cols(); ++v) batch[v] = proba(i, v) > 0.5 ? 1 : 0;
    EXPECT_EQ(batch, model.predict(data.features.row(i))) << "row " << i;
  }
}

/// Multi-label leak-style dataset: `labels` sparse cuts of a few features.
MultiLabelDataset tree_multilabel_data(std::size_t n, std::size_t labels, Rng& rng) {
  MultiLabelDataset data;
  data.features = Matrix(n, 6);
  data.labels.assign(n, Labels(labels, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 6; ++c) data.features(i, c) = rng.normal(0.0, 1.0);
    for (std::size_t v = 0; v < labels; ++v) {
      data.labels[i][v] = data.features(i, v % 6) > 1.0 ? 1 : 0;
    }
  }
  return data;
}

TEST(FitStore, MismatchedOrMissingStoreIsRejected) {
  Rng rng(67);
  const auto [x, y] = blobs(100, rng);
  FitStore store;
  store.bins.fit(x, 32);  // budget disagrees with the ensembles' max_bins
  GradientBoostingClassifier gb;
  EXPECT_THROW(gb.fit(x, y, store), InvalidArgument);
  RandomForestClassifier rf;
  EXPECT_THROW(rf.fit(x, y, store), InvalidArgument);

  // A feature map fitted on another width, or drawn without RFF, does not
  // fit this SVM's training matrix.
  FitStore narrow;
  const Matrix first_column = Matrix(x.rows(), 1, 0.5);
  narrow.svm_map = SvmFeatureMap::fit(first_column, SvmConfig{}, narrow.svm_features);
  SvmClassifier svm;
  EXPECT_THROW(svm.fit(x, y, narrow), InvalidArgument);
  SvmConfig linear;
  linear.rff_dimension = 0;
  FitStore plain;
  plain.svm_map = SvmFeatureMap::fit(x, linear, plain.svm_features);
  EXPECT_THROW(svm.fit(x, y, plain), InvalidArgument);

  // Every kind requires what it advertises; the linear kinds take nothing.
  for (const auto& c : all_models()) {
    auto model = c.factory();
    const bool takes_store = model->fit_store_bins() > 0 || model->fit_store_svm_map() != nullptr;
    if (takes_store) {
      EXPECT_THROW(model->fit(x, y, FitStore{}), InvalidArgument) << c.name;
    } else {
      EXPECT_NO_THROW(model->fit(x, y, FitStore{})) << c.name;
    }
  }
}

TEST(MultiLabel, ParallelFitBitIdenticalToSerial) {
  Rng rng(68);
  const auto data = tree_multilabel_data(250, 4, rng);
  MultiLabelModel serial([] { return std::make_unique<GradientBoostingClassifier>(); });
  MultiLabelModel parallel([] { return std::make_unique<GradientBoostingClassifier>(); });
  serial.fit(data, /*parallel=*/false);
  parallel.fit(data, /*parallel=*/true);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto a = serial.predict_proba(data.features.row(i));
    const auto b = parallel.predict_proba(data.features.row(i));
    EXPECT_EQ(a, b);
  }
}

/// Per-row predict_proba of `model` over every row of `x`, stacked like
/// predict_proba_batch_into's output.
Matrix per_row_proba(const MultiLabelModel& model, const Matrix& x) {
  Matrix out(x.rows(), model.num_labels());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto row = model.predict_proba(x.row(i));
    std::copy(row.begin(), row.end(), out.row(i).begin());
  }
  return out;
}

TEST(MultiLabel, SharedStoreBitIdenticalToPerLabelBinning) {
  // The shared store (one binning, one SVM feature map) against the
  // per-label reference (each label's classifier fitted on its own, so
  // with its own binning and map): bitwise equal predictions, per row and
  // through the batched path that hoists the shared map.
  Rng rng(69);
  const auto data = tree_multilabel_data(250, 4, rng);
  const std::vector<ModelCase> cases = {
      {"RF", [] { return std::make_unique<RandomForestClassifier>(); }},
      {"SVM", [] { return std::make_unique<SvmClassifier>(); }},
      {"HybridRSL", [] { return std::make_unique<HybridRslClassifier>(); }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    MultiLabelModel shared(c.factory);
    shared.fit(data, /*parallel=*/true);
    Matrix reference(data.num_samples(), data.num_labels());
    for (std::size_t v = 0; v < data.num_labels(); ++v) {
      const auto per_label = c.factory();
      per_label->fit(data.features, data.label_column(v));
      for (std::size_t i = 0; i < data.num_samples(); ++i) {
        reference(i, v) = per_label->predict_proba(data.features.row(i));
      }
    }
    EXPECT_EQ(per_row_proba(shared, data.features).data(), reference.data());
    Matrix batch;
    shared.predict_proba_batch_into(data.features, batch, /*parallel=*/false);
    EXPECT_EQ(batch.data(), reference.data());
  }
}

TEST(MultiLabel, FitCallsTheFactoryOncePerFit) {
  // One kind per profile: a factory that alternates kinds still yields
  // one kind, the prototype's, on every label.
  Rng rng(70);
  const auto data = tree_multilabel_data(250, 4, rng);
  auto made = std::make_shared<std::size_t>(0);
  MultiLabelModel model([made]() -> std::unique_ptr<BinaryClassifier> {
    if ((*made)++ % 2 == 0) return std::make_unique<LogisticRegressionClassifier>();
    return std::make_unique<RandomForestClassifier>();
  });
  model.fit(data, /*parallel=*/true);
  EXPECT_EQ(*made, 1u);
  EXPECT_EQ(model.kind(), "LogisticR");
  for (std::size_t v = 0; v < model.num_labels(); ++v) {
    EXPECT_EQ(model.classifier(v)->name(), "LogisticR");
  }
  model.fit(data, /*parallel=*/false);
  EXPECT_EQ(*made, 2u);
  EXPECT_EQ(model.kind(), "RF");
}

TEST(MultiLabel, LoadRejectsLabelsThatDoNotShareTheInputMap) {
  // A crafted LogisticR payload whose two labels standardize with
  // different scalers: the batch path would map every row with the first
  // label's scaler, so load throws instead. The same state twice loads.
  Rng rng(74);
  const auto [x, y] = blobs(80, rng);
  Matrix shifted = x;
  for (double& value : shifted.data()) value += 1.0;
  LogisticRegressionClassifier first;
  first.fit(x, y);
  LogisticRegressionClassifier second;
  second.fit(shifted, y);
  auto payload = [](const BinaryClassifier& a, const BinaryClassifier& b) {
    io::BinaryWriter writer;
    writer.write_string("LogisticR");
    writer.write_bool(false);  // no SVM feature map
    writer.write_u64(2);
    for (const BinaryClassifier* c : {&a, &b}) {
      writer.write_bool(true);
      c->save_state(writer);
    }
    return writer.buffer();
  };
  const std::string same = payload(first, first);
  io::BinaryReader control(same);
  EXPECT_NO_THROW(MultiLabelModel::load(control));
  const std::string differ = payload(first, second);
  io::BinaryReader reader(differ);
  try {
    MultiLabelModel::load(reader);
    ADD_FAILURE() << "loaded labels whose scalers differ";
  } catch (const io::SerializationError& error) {
    EXPECT_NE(std::string(error.what()).find("does not share"), std::string::npos)
        << error.what();
  }
}

TEST(MultiLabel, LoadRejectsAConstantRateOtherThanZeroOrOne) {
  // fit stores a single-class label's rate, 0 or 1; any other value in a
  // payload is malformed.
  for (const double rate : {0.0, 1.0, 0.5, std::nan("")}) {
    io::BinaryWriter writer;
    writer.write_string("RF");
    writer.write_bool(false);  // no SVM feature map
    writer.write_u64(1);
    writer.write_bool(false);  // a constant label
    writer.write_f64(rate);
    io::BinaryReader reader(writer.buffer());
    if (rate == 0.0 || rate == 1.0) {
      EXPECT_EQ(MultiLabelModel::load(reader).predict_proba(std::vector<double>{0.0})[0], rate);
    } else {
      EXPECT_THROW(MultiLabelModel::load(reader), io::SerializationError) << rate;
    }
  }
}

TEST(MultiLabel, LoadRejectsAFeatureMapForAKindThatTakesNone) {
  Rng rng(75);
  const auto [x, y] = blobs(60, rng);
  (void)y;
  Matrix features;
  const auto map = SvmFeatureMap::fit(x, SvmConfig{}, features);
  for (const std::string kind : {"SVM", "LogisticR"}) {
    io::BinaryWriter writer;
    writer.write_string(kind);
    writer.write_bool(true);
    map->save(writer);
    writer.write_u64(1);
    writer.write_bool(false);  // a constant label
    writer.write_f64(0.0);
    io::BinaryReader reader(writer.buffer());
    if (kind == "SVM") {
      EXPECT_NO_THROW(MultiLabelModel::load(reader));
    } else {
      EXPECT_THROW(MultiLabelModel::load(reader), io::SerializationError);
    }
  }
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// `bytes` with its trailing u64 replaced by `value`.
std::string with_trailing_u64(std::string bytes, std::uint64_t value) {
  io::BinaryWriter tail;
  tail.write_u64(value);
  bytes.replace(bytes.size() - 8, 8, tail.buffer());
  return bytes;
}

TEST(ModelIo, CapSizedCountsThrowBeforeAllocating) {
  // Each payload declares 2^24 elements (the sanity cap) and then ends.
  // The loaders bound a count by what the remaining bytes can hold, so
  // they throw before allocating for the elements: at 64 bytes per empty
  // tree, allocating first would cost 1 GiB.
  constexpr std::uint64_t kCap = std::uint64_t{1} << 24;
  const double before = peak_rss_mib();

  // Unfitted ensembles: an empty tree list ends the state.
  RandomForestClassifier forest;
  GradientBoostingClassifier boosting;
  // The count check itself must fire, not a truncation error after the
  // allocation.
  auto expect_count_rejected = [](const std::function<void()>& load, const std::string& reason) {
    try {
      load();
      ADD_FAILURE() << "accepted a cap-sized count: " << reason;
    } catch (const io::SerializationError& error) {
      EXPECT_NE(std::string(error.what()).find(reason), std::string::npos) << error.what();
    }
  };
  for (BinaryClassifier* classifier : {static_cast<BinaryClassifier*>(&forest),
                                       static_cast<BinaryClassifier*>(&boosting)}) {
    io::BinaryWriter state;
    classifier->save_state(state);
    const std::string crafted = with_trailing_u64(state.buffer(), kCap);
    auto fresh = classifier->clone_config();
    expect_count_rejected(
        [&] {
          io::BinaryReader reader(crafted);
          fresh->load_state(reader, nullptr);
        },
        classifier == &forest ? "malformed forest size" : "malformed ensemble size");
  }

  // A fitted ensemble holds a tree: an empty list is rejected too.
  for (BinaryClassifier* classifier : {static_cast<BinaryClassifier*>(&forest),
                                       static_cast<BinaryClassifier*>(&boosting)}) {
    io::BinaryWriter state;
    classifier->save_state(state);
    io::BinaryReader reader(state.buffer());
    EXPECT_THROW(classifier->clone_config()->load_state(reader, nullptr), io::SerializationError);
  }

  io::BinaryWriter labels;
  labels.write_string("RF");
  labels.write_bool(false);  // no SVM feature map
  labels.write_u64(kCap);
  expect_count_rejected(
      [&] {
        io::BinaryReader reader(labels.buffer());
        MultiLabelModel::load(reader);
      },
      "label count");

  EXPECT_LT(peak_rss_mib() - before, 64.0);
}

TEST(ModelIo, LinearStateMustStandardizeWhatItsWeightsTake) {
  // decision() walks the scaler's width over the weights, so a state with
  // fewer weights than its scaler is wide would read past them; a state
  // of another loss is another kind's.
  auto state = [](std::uint8_t loss, std::size_t width, std::size_t weights) {
    io::BinaryWriter writer;
    writer.write_u8(loss);
    write_sgd_config(writer, SgdConfig{});
    writer.write_f64_vector(std::vector<double>(width, 0.0));  // scaler mean
    writer.write_f64_vector(std::vector<double>(width, 1.0));  // scaler 1/std
    writer.write_f64_vector(std::vector<double>(weights, 0.5));
    writer.write_f64(0.0);  // bias
    return writer.buffer();
  };
  auto load = [](BinaryClassifier& classifier, const std::string& bytes) {
    io::BinaryReader reader(bytes);
    classifier.load_state(reader, nullptr);
  };
  constexpr std::uint8_t kSquared = 0, kLogistic = 1;
  LinearRegressionClassifier linear;
  LogisticRegressionClassifier logistic;
  EXPECT_NO_THROW(load(linear, state(kSquared, 4, 4)));
  EXPECT_NO_THROW(load(logistic, state(kLogistic, 4, 4)));
  EXPECT_THROW(load(logistic, state(kLogistic, 4, 3)), io::SerializationError);
  EXPECT_THROW(load(linear, state(kSquared, 0, 0)), io::SerializationError);
  EXPECT_THROW(load(logistic, state(kSquared, 4, 4)), io::SerializationError);
}

TEST(HybridRsl, StackedSvmColumnIsTheSvmProbability) {
  // fit() takes the stacked SVM column from the decision values of the
  // Platt fit. It must be bitwise the inner SVM's predict_proba on each
  // training row: a meta learner refit on predict_proba stacks then
  // predicts exactly as the hybrid does.
  Rng rng(72);
  const auto [x, y] = blobs(300, rng);
  HybridRslClassifier hybrid;
  hybrid.fit(x, y);
  Matrix stacked(x.rows(), 2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    stacked(i, 0) = hybrid.forest().predict_proba(x.row(i));
    stacked(i, 1) = hybrid.svm().predict_proba(x.row(i));
  }
  LogisticRegressionClassifier reference(HybridRslConfig{}.meta);
  reference.fit(stacked, y);
  Rng test_rng(73);
  const auto [tx, ty] = blobs(100, test_rng);
  (void)ty;
  for (std::size_t i = 0; i < tx.rows(); ++i) {
    const double meta_input[2] = {hybrid.forest().predict_proba(tx.row(i)),
                                  hybrid.svm().predict_proba(tx.row(i))};
    EXPECT_EQ(hybrid.predict_proba(tx.row(i)),
              reference.predict_proba(std::span<const double>(meta_input, 2)));
  }
}

TEST(MultiLabel, RequiresFactoryAndData) {
  MultiLabelModel unset;
  MultiLabelDataset data;
  data.features = Matrix(2, 1, 1.0);
  data.labels.assign(2, Labels(1, 0));
  EXPECT_THROW(unset.fit(data), InvalidArgument);
  MultiLabelModel model([] { return std::make_unique<LinearRegressionClassifier>(); });
  std::vector<double> probe{1.0};
  EXPECT_THROW(model.predict(probe), InvalidArgument);
}

}  // namespace
}  // namespace aqua::ml
