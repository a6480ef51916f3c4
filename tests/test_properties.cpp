// Property-style parameterized sweeps over both built-in networks and a
// range of operating conditions: physical invariants the hydraulic
// substrate must satisfy regardless of configuration.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/aquascale.hpp"
#include "core/inference_engine.hpp"

namespace aqua::hydraulics {
namespace {

struct NetworkCase {
  std::string name;
  Network (*make)();
};

std::vector<NetworkCase> networks_under_test() {
  return {{"EpaNet", networks::make_epa_net}, {"WsscSubnet", networks::make_wssc_subnet}};
}

class EveryNetwork : public ::testing::TestWithParam<NetworkCase> {};

TEST_P(EveryNetwork, MassBalanceHoldsAtEveryJunction) {
  const auto net = GetParam().make();
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  for (const NodeId v : net.junction_ids()) {
    double net_inflow = 0.0;
    for (LinkId l = 0; l < net.num_links(); ++l) {
      if (net.link(l).to == v) net_inflow += state.flow[l];
      if (net.link(l).from == v) net_inflow -= state.flow[l];
    }
    const double demand = net.demand_at(v, 0) + state.emitter_outflow[v];
    EXPECT_NEAR(net_inflow, demand, 2e-4) << GetParam().name << " node " << v;
  }
}

TEST_P(EveryNetwork, EnergyConservedAroundEveryLink) {
  // H_from - H_to must equal the head loss implied by the link's flow.
  const auto net = GetParam().make();
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged);
  for (LinkId l = 0; l < net.num_links(); ++l) {
    const Link& link = net.link(l);
    const auto lg = link_loss(link, state.flow[l]);
    EXPECT_NEAR(state.head[link.from] - state.head[link.to], lg.loss, 0.05)
        << GetParam().name << " link " << link.name;
  }
}

TEST_P(EveryNetwork, LeakAlwaysIncreasesSourceOutput) {
  const auto healthy = GetParam().make();
  GgaSolver healthy_solver(healthy);
  const auto base = healthy_solver.solve_snapshot();
  auto source_output = [&](const Network& net, const HydraulicState& state) {
    double total = 0.0;
    for (LinkId l = 0; l < net.num_links(); ++l) {
      const Link& link = net.link(l);
      if (net.node(link.from).type == NodeType::kReservoir) total += state.flow[l];
      if (net.node(link.to).type == NodeType::kReservoir) total -= state.flow[l];
    }
    return total;
  };
  auto leaky = GetParam().make();
  leaky.set_emitter(leaky.junction_ids()[17], 0.005);
  GgaSolver leaky_solver(leaky);
  const auto after = leaky_solver.solve_snapshot();
  EXPECT_GT(source_output(leaky, after), source_output(healthy, base)) << GetParam().name;
}

TEST_P(EveryNetwork, BiggerLeakBiggerDrawdown) {
  const auto base = GetParam().make();
  const NodeId target = base.junction_ids()[25];
  double previous_pressure = 1e18;
  for (const double ec : {0.001, 0.004, 0.008}) {
    auto net = GetParam().make();
    net.set_emitter(target, ec);
    GgaSolver solver(net);
    const auto state = solver.solve_snapshot();
    ASSERT_TRUE(state.converged) << GetParam().name << " ec " << ec;
    EXPECT_LT(state.pressure[target], previous_pressure) << GetParam().name << " ec " << ec;
    previous_pressure = state.pressure[target];
  }
}

TEST_P(EveryNetwork, DemandScalingLowersPressureMonotonically) {
  // Higher system-wide demand -> lower minimum service pressure.
  double previous_min = 1e18;
  for (const double scale : {0.5, 1.0, 1.6}) {
    auto net = GetParam().make();
    GgaSolver solver(net);
    std::vector<double> demands(net.num_nodes(), 0.0), fixed(net.num_nodes(), 0.0);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      demands[v] = net.demand_at(v, 0) * scale;
      const auto& node = net.node(v);
      if (node.type == NodeType::kReservoir) fixed[v] = node.elevation;
      if (node.type == NodeType::kTank) fixed[v] = node.elevation + node.init_level;
    }
    const auto state = solver.solve(demands, fixed);
    ASSERT_TRUE(state.converged);
    double min_pressure = 1e18;
    for (const NodeId v : net.junction_ids()) {
      min_pressure = std::min(min_pressure, state.pressure[v]);
    }
    EXPECT_LT(min_pressure, previous_min + 1e-9) << GetParam().name << " scale " << scale;
    previous_min = min_pressure;
  }
}

TEST_P(EveryNetwork, EpsIsDeterministic) {
  const auto net = GetParam().make();
  SimulationOptions options;
  options.duration_s = 2 * 3600.0;
  Simulation a(net, options), b(net, options);
  const auto ra = a.run();
  const auto rb = b.run();
  for (std::size_t s = 0; s < ra.num_steps(); ++s) {
    for (NodeId v = 0; v < ra.num_nodes(); ++v) {
      ASSERT_DOUBLE_EQ(ra.pressure(s, v), rb.pressure(s, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BuiltinNetworks, EveryNetwork,
                         ::testing::ValuesIn(networks_under_test()),
                         [](const ::testing::TestParamInfo<NetworkCase>& info) {
                           return info.param.name;
                         });

/// Emitter-exponent sweep: Eq. 1 must hold at the solution for any beta.
class EmitterExponent : public ::testing::TestWithParam<double> {};

TEST_P(EmitterExponent, EquationOneHoldsAtSolution) {
  const double beta = GetParam();
  Network net("beta");
  const NodeId r = net.add_reservoir("R", 50.0);
  const NodeId a = net.add_junction("A", 10.0, 5.0);
  net.add_pipe("P", r, a, 300.0, 0.3, 120.0);
  net.set_emitter(a, 0.002, beta);
  GgaSolver solver(net);
  const auto state = solver.solve_snapshot();
  ASSERT_TRUE(state.converged) << "beta " << beta;
  const double p = state.pressure[a];
  ASSERT_GT(p, 1.0);
  EXPECT_NEAR(state.emitter_outflow[a], 0.002 * std::pow(p, beta), 1e-7) << "beta " << beta;
}

INSTANTIATE_TEST_SUITE_P(BetaSweep, EmitterExponent,
                         ::testing::Values(0.5, 0.75, 1.0, 1.5, 2.0, 2.5));

/// Leak-slot sweep: the scheduled activation must be exact at any slot.
class LeakSlot : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LeakSlot, ActivationIsExactlyOnSchedule) {
  const std::size_t slot = GetParam();
  const auto net = networks::make_epa_net();
  const NodeId target = net.junction_ids()[30];
  SimulationOptions options;
  options.duration_s = static_cast<double>(slot + 2) * 900.0;
  const std::vector<LeakEvent> leak{{target, 0.003, 0.5, static_cast<double>(slot) * 900.0}};
  const auto results = Simulation(net, options).run({.leaks = leak});
  EXPECT_DOUBLE_EQ(results.emitter_outflow(slot - 1, target), 0.0);
  EXPECT_GT(results.emitter_outflow(slot, target), 0.0);
}

INSTANTIATE_TEST_SUITE_P(SlotSweep, LeakSlot, ::testing::Values(1u, 4u, 16u, 40u, 80u));

}  // namespace
}  // namespace aqua::hydraulics

// ---------------------------------------------------------------------------
// Phase II fusion and serving-layer properties: invariants of the Bayes
// weather update, the human-tuning energy descent, and bit-identity of the
// batched InferenceEngine against the sequential Algorithm 2.
// ---------------------------------------------------------------------------

namespace aqua::core {
namespace {

/// Hand-rolled Algorithm 2 (the seed's sequential arithmetic), kept
/// independent of the engine so the bit-identity property pins the
/// batched path, the single-snapshot path and this reference to each
/// other.
InferenceResult reference_infer(const ProfileModel& profile, const InferenceInputs& inputs) {
  InferenceResult result;
  result.beliefs.p_leak = profile.model.predict_proba(inputs.features);
  result.predicted_iot_only = result.beliefs.predicted_set();
  if (!inputs.frozen.empty()) {
    result.weather_updates =
        fusion::apply_weather_update(result.beliefs, inputs.frozen, inputs.p_leak_given_freeze);
  }
  result.energy_before =
      fusion::total_energy(result.beliefs, inputs.cliques, inputs.entropy_threshold);
  if (!inputs.cliques.empty()) {
    result.tuning =
        fusion::apply_human_tuning(result.beliefs, inputs.cliques, inputs.entropy_threshold);
  }
  result.energy_after =
      fusion::total_energy(result.beliefs, inputs.cliques, inputs.entropy_threshold);
  result.predicted = result.beliefs.predicted_set();
  return result;
}

TEST(WeatherUpdateProperty, MonotoneInPriorAndClampedToUnitInterval) {
  Rng rng(0xabc123);
  for (int trial = 0; trial < 200; ++trial) {
    const double expert = rng.uniform(0.01, 0.99);
    double previous = -1.0;
    for (double prior : {0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0}) {
      fusion::Beliefs beliefs;
      beliefs.p_leak = {prior};
      const std::size_t updated = fusion::apply_weather_update(beliefs, {1}, expert);
      ASSERT_EQ(updated, 1u);
      const double posterior = beliefs.p_leak[0];
      // Clamped to a valid probability...
      ASSERT_GE(posterior, 0.0);
      ASSERT_LE(posterior, 1.0);
      // ...and non-decreasing in the IoT prior for a fixed expert.
      ASSERT_GE(posterior, previous) << "expert " << expert << " prior " << prior;
      previous = posterior;
    }
  }
}

TEST(WeatherUpdateProperty, UnfrozenLabelsAreNeverTouched) {
  Rng rng(0x5151);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 19));
    fusion::Beliefs beliefs;
    std::vector<std::uint8_t> frozen(n);
    for (std::size_t v = 0; v < n; ++v) {
      beliefs.p_leak.push_back(rng.uniform());
      frozen[v] = rng.uniform() < 0.4 ? 1 : 0;
    }
    const fusion::Beliefs before = beliefs;
    fusion::apply_weather_update(beliefs, frozen, 0.9);
    for (std::size_t v = 0; v < n; ++v) {
      if (frozen[v] == 0) {
        ASSERT_EQ(beliefs.p_leak[v], before.p_leak[v]) << "unfrozen label " << v << " changed";
      }
    }
  }
}

TEST(HumanTuningProperty, EnergyNeverIncreases) {
  Rng rng(0xfeed);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 14));
    fusion::Beliefs beliefs;
    for (std::size_t v = 0; v < n; ++v) beliefs.p_leak.push_back(rng.uniform());
    // A few random cliques, including possible overlaps and singletons.
    std::vector<fusion::LabelClique> cliques;
    const std::size_t num_cliques = static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t c = 0; c < num_cliques; ++c) {
      fusion::LabelClique clique;
      const std::size_t members = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
      for (std::size_t m = 0; m < members; ++m) {
        clique.labels.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
      }
      clique.confidence = rng.uniform();
      cliques.push_back(std::move(clique));
    }
    const double gamma = rng.uniform(0.0, 0.7);  // spans [0, ln 2] and beyond

    const double energy_before = fusion::total_energy(beliefs, cliques, gamma);
    fusion::apply_human_tuning(beliefs, cliques, gamma);
    const double energy_after = fusion::total_energy(beliefs, cliques, gamma);

    ASSERT_LE(energy_after, energy_before)
        << "tuning raised the energy at trial " << trial << " gamma " << gamma;
    // Tuning resolves every inconsistent clique (force or determinate), so
    // the post-tuning energy is finite.
    ASSERT_TRUE(std::isfinite(energy_after)) << "trial " << trial;
  }
}

/// Fits a small multi-label model on synthetic data. Some labels are left
/// intentionally degenerate (all-negative) to exercise the constant-
/// classifier path of the shared-input-map protocol.
ProfileModel make_synthetic_profile(ModelKind kind, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t samples = 60, features = 5, labels = 7;
  ml::MultiLabelDataset data;
  data.features = ml::Matrix(samples, features);
  data.labels.assign(samples, ml::Labels(labels, 0));
  for (std::size_t i = 0; i < samples; ++i) {
    for (std::size_t c = 0; c < features; ++c) data.features(i, c) = rng.normal();
    for (std::size_t v = 0; v + 1 < labels; ++v) {  // last label stays all-zero
      const double score = data.features(i, v % features) + 0.3 * rng.normal();
      data.labels[i][v] = score > 0.0 ? 1 : 0;
    }
  }
  ProfileModel profile;
  profile.kind = kind;
  profile.model = ml::MultiLabelModel(make_classifier_factory(kind));
  profile.model.fit(data);
  // The synthetic feature columns stand for placeholder sensors; there is
  // no time feature.
  profile.sensors.sensors.resize(features);
  profile.include_time_feature = false;
  return profile;
}

InferenceInputs random_inputs(Rng& rng, std::size_t features, std::size_t labels) {
  InferenceInputs inputs;
  for (std::size_t c = 0; c < features; ++c) inputs.features.push_back(rng.normal());
  if (rng.uniform() < 0.7) {
    inputs.frozen.resize(labels);
    for (auto& f : inputs.frozen) f = rng.uniform() < 0.3 ? 1 : 0;
  }
  const std::size_t num_cliques = static_cast<std::size_t>(rng.uniform_int(0, 2));
  for (std::size_t c = 0; c < num_cliques; ++c) {
    fusion::LabelClique clique;
    for (int m = 0; m < 2; ++m) {
      clique.labels.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(labels) - 1)));
    }
    inputs.cliques.push_back(std::move(clique));
  }
  inputs.entropy_threshold = rng.uniform(0.0, 0.3);
  return inputs;
}

void expect_identical_results(const InferenceResult& a, const InferenceResult& b,
                              const std::string& what) {
  ASSERT_EQ(a.beliefs.p_leak, b.beliefs.p_leak) << what;
  ASSERT_EQ(a.predicted, b.predicted) << what;
  ASSERT_EQ(a.predicted_iot_only, b.predicted_iot_only) << what;
  ASSERT_EQ(a.weather_updates, b.weather_updates) << what;
  ASSERT_EQ(a.tuning.added_labels, b.tuning.added_labels) << what;
  ASSERT_EQ(a.energy_before, b.energy_before) << what;
  ASSERT_EQ(a.energy_after, b.energy_after) << what;
}

class EngineBitIdentity : public ::testing::TestWithParam<ModelKind> {};

TEST_P(EngineBitIdentity, BatchMatchesSequentialAndReferenceOnRandomInputs) {
  const ProfileModel profile = make_synthetic_profile(GetParam(), 0x7777);
  const std::size_t labels = profile.model.num_labels();

  Rng rng(0x2468);
  std::vector<InferenceInputs> batch;
  for (int i = 0; i < 24; ++i) batch.push_back(random_inputs(rng, 5, labels));

  const InferenceEngine engine(profile);
  const auto batched = engine.infer_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto tag = " input " + std::to_string(i);
    expect_identical_results(batched[i], reference_infer(profile, batch[i]),
                             "engine vs naive reference" + tag);
    expect_identical_results(batched[i], engine.infer(batch[i]), "batch vs single" + tag);
  }
}

INSTANTIATE_TEST_SUITE_P(ModelKinds, EngineBitIdentity,
                         ::testing::Values(ModelKind::kLogisticR, ModelKind::kSvm,
                                           ModelKind::kHybridRsl));

TEST(EngineProperty, EveryLabelAcceptsTheFirstFittedLabelsInputMap) {
  // LogisticR/SVM/HybridRSL all carry per-label copies of one input
  // transform; the batched path hoists the first fitted label's.
  for (const ModelKind kind : {ModelKind::kLogisticR, ModelKind::kSvm, ModelKind::kHybridRsl}) {
    const ProfileModel profile = make_synthetic_profile(kind, 0x1357);
    const ml::BinaryClassifier* owner = nullptr;
    for (std::size_t v = 0; v < profile.model.num_labels(); ++v) {
      const ml::BinaryClassifier* label = profile.model.classifier(v);
      if (label == nullptr) continue;
      if (owner == nullptr) owner = label;
      EXPECT_TRUE(label->accepts_input_map(*owner)) << model_kind_name(kind) << " label " << v;
    }
    EXPECT_NE(owner, nullptr) << model_kind_name(kind);
  }
}

TEST(EngineProperty, TelemetryCountsEverySnapshotAndStage) {
  const ProfileModel profile = make_synthetic_profile(ModelKind::kLogisticR, 0x9753);
  const InferenceEngine engine(profile);
  Rng rng(0x1122);
  std::vector<InferenceInputs> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(random_inputs(rng, 5, profile.model.num_labels()));

  engine.reset_telemetry();
  (void)engine.infer_batch(batch);
  (void)engine.infer(batch.front());
  const auto times = engine.telemetry_snapshot();
  EXPECT_EQ(times.count(InferenceEngine::kCounterSnapshots), 11u);
  EXPECT_EQ(times.count(InferenceEngine::kCounterBatches), 2u);
  EXPECT_EQ(times.calls(InferenceEngine::kStageProfileEval), 11u);
  EXPECT_GT(times.seconds(InferenceEngine::kStageProfileEval), 0.0);
  EXPECT_GT(times.calls(InferenceEngine::kStageEnergy), 0u);
  // The flat metric rendering carries every stage and counter.
  EXPECT_EQ(times.metrics("p2.").size(), 2 * InferenceEngine::kNumStages +
                                             InferenceEngine::kNumCounters);
}

TEST(EngineProperty, EmptyBatchYieldsNoResults) {
  const ProfileModel profile = make_synthetic_profile(ModelKind::kLogisticR, 0x1133);
  const InferenceEngine engine(profile);
  EXPECT_TRUE(engine.infer_batch({}).empty());
}

TEST(EngineProperty, InconsistentFeatureDimensionsThrow) {
  const ProfileModel profile = make_synthetic_profile(ModelKind::kLogisticR, 0x2244);
  const InferenceEngine engine(profile);
  Rng rng(0x3355);
  std::vector<InferenceInputs> batch;
  batch.push_back(random_inputs(rng, 5, profile.model.num_labels()));
  batch.push_back(random_inputs(rng, 4, profile.model.num_labels()));
  EXPECT_THROW((void)engine.infer_batch(batch), InvalidArgument);
}

}  // namespace
}  // namespace aqua::core
