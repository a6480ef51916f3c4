// Phase I profile-model fit throughput: the paper trains per-node leak
// classifiers on a 20,000-scenario corpus (Sec. IV-A), and multi-label
// GB/RF fitting — not hydraulics — is the binding cost of Phase I. This
// bench sweeps the corpus size 1.5k → 20k on both builtin networks
// through the shared binned store, and finishes with the paper's full
// 20k/2k train/test experiment end-to-end on EPA-NET.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/snapshots.hpp"
#include "ml/gradient_boosting.hpp"
#include "ml/multilabel.hpp"
#include "ml/random_forest.hpp"
#include "networks/builtin.hpp"
#include "sensing/sensors.hpp"

using namespace aqua;
using namespace aqua::core;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// First `n` rows of a dataset (the sweep trains on nested prefixes).
ml::MultiLabelDataset take_rows(const ml::MultiLabelDataset& data, std::size_t n) {
  ml::MultiLabelDataset out;
  out.features = ml::Matrix(n, data.features.cols());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < data.features.cols(); ++c) {
      out.features(r, c) = data.features(r, c);
    }
  }
  out.labels.assign(data.labels.begin(),
                    data.labels.begin() + static_cast<std::ptrdiff_t>(n));
  out.feature_names = data.feature_names;
  return out;
}

double timed_multilabel_fit(const ml::MultiLabelDataset& data,
                            const ml::ClassifierFactory& factory) {
  ml::MultiLabelModel model(factory);
  const auto start = std::chrono::steady_clock::now();
  model.fit(data);
  return seconds_since(start);
}

void sweep_network(const hydraulics::Network& net, const std::string& key,
                   bench::Metrics& metrics) {
  ScenarioConfig config;
  config.max_events = 3;
  config.seed = 777;
  ScenarioGenerator generator(net, config);
  const auto scenarios = generator.generate(bench::scaled(20'000));
  const auto t_sim = std::chrono::steady_clock::now();
  const SnapshotBatch batch(net, scenarios, {1});
  const double sim_s = seconds_since(t_sim);
  const auto sensors = sensing::full_observation(net);
  const auto full = batch.build_dataset(scenarios, sensors, 0, {}, 999);

  std::printf("\n%s: %zu scenarios simulated in %.1f s (%zu labels, %zu features)\n",
              net.name().c_str(), scenarios.size(), sim_s, full.num_labels(),
              full.features.cols());
  metrics.emplace_back(key + ".corpus_scenarios", static_cast<double>(scenarios.size()));
  metrics.emplace_back(key + ".simulate_s", sim_s);

  Table table({"corpus", "GB fit [s]", "RF fit [s]"});
  const auto gb_factory = [] { return std::make_unique<ml::GradientBoostingClassifier>(); };
  const auto rf_factory = [] { return std::make_unique<ml::RandomForestClassifier>(); };
  for (const std::size_t size : {std::size_t{1'500}, std::size_t{6'000}, std::size_t{20'000}}) {
    if (size > full.features.rows()) break;
    const auto data = take_rows(full, size);
    const double gb_s = timed_multilabel_fit(data, gb_factory);
    const double rf_s = timed_multilabel_fit(data, rf_factory);
    table.add_row({std::to_string(size), Table::num(gb_s, 2), Table::num(rf_s, 2)});
    const std::string prefix = key + ".fit" + std::to_string(size);
    metrics.emplace_back(prefix + ".gb_s", gb_s);
    metrics.emplace_back(prefix + ".rf_s", rf_s);
  }
  table.print();
}

void paper_scale_epa(bench::Metrics& metrics) {
  std::printf("\npaper-scale end-to-end on EPA-NET: 20,000 train / 2,000 test\n");
  const auto net = networks::make_epa_net();
  ExperimentConfig config;
  config.train_samples = bench::scaled(20'000);
  config.test_samples = bench::scaled(2'000);
  config.scenarios.max_events = 3;
  config.elapsed_slots = {1};
  config.seed = 6002;
  const auto t_sim = std::chrono::steady_clock::now();
  ExperimentContext context(net, config);
  const double sim_s = seconds_since(t_sim);
  metrics.emplace_back("paper_scale.simulate_s", sim_s);
  metrics.emplace_back("paper_scale.train_samples", static_cast<double>(config.train_samples));
  metrics.emplace_back("paper_scale.test_samples", static_cast<double>(config.test_samples));

  Table table({"technique", "hamming", "train [s]", "infer [ms/sample]"});
  for (const ModelKind kind : {ModelKind::kGradientBoosting, ModelKind::kRandomForest}) {
    EvalOptions options;
    options.kind = kind;
    const auto result = context.evaluate(options);
    table.add_row({model_kind_name(kind), Table::num(result.hamming),
                   Table::num(result.train_seconds, 1),
                   Table::num(result.mean_infer_seconds * 1e3, 2)});
    const std::string prefix = "paper_scale." + model_kind_name(kind);
    metrics.emplace_back(prefix + ".hamming", result.hamming);
    metrics.emplace_back(prefix + ".train_s", result.train_seconds);
    metrics.emplace_back(prefix + ".mean_infer_s", result.mean_infer_seconds);
  }
  table.print();
}

}  // namespace

int main() {
  bench::banner("Phase I profile fit", "shared-store multi-label training sweep");
  bench::Metrics metrics;
  sweep_network(networks::make_epa_net(), "epa_net", metrics);
  sweep_network(networks::make_wssc_subnet(), "wssc_subnet", metrics);
  paper_scale_epa(metrics);
  return bench::json_report("profile_fit", metrics) ? 0 : 1;
}
