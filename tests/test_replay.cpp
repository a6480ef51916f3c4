// Replay-fidelity contract (DESIGN.md §9): a run resumed from a baseline
// checkpoint must equal the tail of the full run bit for bit — not within
// a tolerance — on every recorded quantity, for every network, leak slot
// and weather regime, serial or on the thread pool. Explicit-Euler tank
// integration plus a warm start that is a pure function of the previous
// step's heads/flows make this assertable.
#include "hydraulics/replay.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "core/snapshots.hpp"
#include "networks/builtin.hpp"

namespace aqua::hydraulics {
namespace {

/// Exact bit equality (== would conflate -0.0 with 0.0 and miss NaN).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bit patterns differ by "
         << (std::bit_cast<std::uint64_t>(a) ^ std::bit_cast<std::uint64_t>(b)) << ")";
}

/// Two results covering the same window (same start_step) must agree bit
/// for bit on every recorded quantity.
void expect_results_equal(const SimulationResults& a, const SimulationResults& b) {
  ASSERT_EQ(a.start_step(), b.start_step());
  ASSERT_EQ(a.num_steps(), b.num_steps());
  for (std::size_t s = 0; s < a.num_steps(); ++s) {
    EXPECT_TRUE(bits_equal(a.time(s), b.time(s))) << "time, step " << s;
    for (NodeId v = 0; v < a.num_nodes(); ++v) {
      EXPECT_TRUE(bits_equal(a.head(s, v), b.head(s, v))) << "head " << s << "/" << v;
      EXPECT_TRUE(bits_equal(a.pressure(s, v), b.pressure(s, v))) << "pressure " << s << "/" << v;
      EXPECT_TRUE(bits_equal(a.emitter_outflow(s, v), b.emitter_outflow(s, v)))
          << "emitter " << s << "/" << v;
    }
    for (LinkId l = 0; l < a.num_links(); ++l) {
      EXPECT_TRUE(bits_equal(a.flow(s, l), b.flow(s, l))) << "flow " << s << "/" << l;
    }
  }
}

void expect_tail_equal(const SimulationResults& full, const SimulationResults& tail) {
  ASSERT_GE(full.num_steps(), tail.start_step() + tail.num_steps());
  for (std::size_t s = 0; s < tail.num_steps(); ++s) {
    const std::size_t fs = tail.start_step() + s;
    EXPECT_TRUE(bits_equal(full.time(fs), tail.time(s))) << "time, step " << fs;
    for (NodeId v = 0; v < full.num_nodes(); ++v) {
      EXPECT_TRUE(bits_equal(full.head(fs, v), tail.head(s, v))) << "head " << fs << "/" << v;
      EXPECT_TRUE(bits_equal(full.pressure(fs, v), tail.pressure(s, v)))
          << "pressure " << fs << "/" << v;
      EXPECT_TRUE(bits_equal(full.emitter_outflow(fs, v), tail.emitter_outflow(s, v)))
          << "emitter " << fs << "/" << v;
    }
    for (LinkId l = 0; l < full.num_links(); ++l) {
      EXPECT_TRUE(bits_equal(full.flow(fs, l), tail.flow(s, l))) << "flow " << fs << "/" << l;
    }
  }
}

/// Replays `events` from a baseline checkpoint at `slot` through the rest
/// of the horizon and checks the tail equals the full run bit for bit.
void expect_replay_equals_run(const Network& net, const SimulationOptions& options,
                              const std::vector<LeakEvent>& events, std::size_t slot) {
  const ScenarioDynamics dynamics{.leaks = events};
  const auto full = Simulation(net, options).run(dynamics);
  const BaselineTrajectory baseline(net, options, slot - 1);
  ReplayEngine engine(baseline);
  const auto tail = engine.replay(dynamics, slot, full.num_steps() - slot);
  EXPECT_EQ(tail.start_step(), slot);
  EXPECT_EQ(tail.num_steps(), full.num_steps() - slot);
  expect_tail_equal(full, tail);
}

TEST(Replay, ReplayMatchesFullRunOnEpaNet) {
  // EPA-NET exercises everything the checkpoint must capture: tanks
  // (levels), pumps, a valve, diurnal patterns — across several leak
  // depths including a slot deep enough for tank drift to accumulate.
  const Network net = networks::make_epa_net();
  const NodeId leak = net.junction_ids()[7];
  for (const std::size_t slot : {std::size_t{1}, std::size_t{5}, std::size_t{12}}) {
    SCOPED_TRACE(slot);
    SimulationOptions options;
    options.duration_s = static_cast<double>(slot + 4) * options.hydraulic_step_s;
    expect_replay_equals_run(
        net, options, {{leak, 0.004, 0.5, static_cast<double>(slot) * options.hydraulic_step_s}},
        slot);
  }
}

TEST(Replay, ReplayMatchesFullRunOnWsscSubnet) {
  const Network net = networks::make_wssc_subnet();
  const std::size_t slot = 6;
  SimulationOptions options;
  options.duration_s = static_cast<double>(slot + 3) * options.hydraulic_step_s;
  expect_replay_equals_run(net, options,
                           {{net.junction_ids()[42], 0.006, 0.5,
                             static_cast<double>(slot) * options.hydraulic_step_s}},
                           slot);
}

/// A scenario no checkpoint serves — a tank drawdown, and a pipe closed
/// before the leak — run by the engine from step 0 must equal
/// Simulation::run bit for bit over the whole horizon.
void expect_step_zero_equals_run(const Network& net) {
  SimulationOptions options;
  options.duration_s = 12 * options.hydraulic_step_s;
  const double slot = options.hydraulic_step_s;
  LinkId pipe = 0;
  while (net.link(pipe).type != LinkType::kPipe) ++pipe;
  const std::vector<LeakEvent> leaks{{net.junction_ids()[9], 0.004, 0.5, 6 * slot}};
  const std::vector<OperationalEvent> closures{{pipe, 2 * slot, 5 * slot}};
  const ScenarioDynamics dynamics{leaks, closures, {}, 0.6};
  ASSERT_FALSE(dynamics.resumable_at(6 * slot));

  const auto full = Simulation(net, options).run(dynamics);
  const BaselineTrajectory baseline(net, options, 3);
  ReplayEngine engine(baseline);
  const auto replayed = engine.replay(dynamics, 0, full.num_steps());
  expect_results_equal(full, replayed);
  EXPECT_EQ(full.total_linear_solves(), replayed.total_linear_solves());
}

TEST(Replay, StepZeroMatchesFullRunOnEpaNet) { expect_step_zero_equals_run(networks::make_epa_net()); }

TEST(Replay, StepZeroMatchesFullRunOnWsscSubnet) {
  // WSSC-SUBNET has no tanks, so the scale changes nothing there; the
  // closure still does.
  expect_step_zero_equals_run(networks::make_wssc_subnet());
}

TEST(Replay, BaselineMatchesHealthyRunPrefix) {
  const Network net = networks::make_epa_net();
  SimulationOptions options;
  options.duration_s = 10 * options.hydraulic_step_s;
  Simulation healthy(net, options);
  const auto full = healthy.run();
  const BaselineTrajectory baseline(net, options, 9);
  ASSERT_EQ(baseline.results().num_steps(), 10u);
  expect_tail_equal(full, baseline.results());
}

TEST(Replay, EngineIsCleanAcrossScenarios) {
  // One engine serving many scenarios must not leak emitter state or a
  // closure still in force from one replay into the next.
  const Network net = networks::make_epa_net();
  SimulationOptions options;
  const BaselineTrajectory baseline(net, options, 8);
  ReplayEngine engine(baseline);

  const double t0 = 4 * options.hydraulic_step_s;
  LinkId pump = 0;
  while (net.link(pump).type != LinkType::kPump) ++pump;
  const std::vector<LeakEvent> a{{net.junction_ids()[3], 0.005, 0.5, t0}};
  const std::vector<LeakEvent> b{{net.junction_ids()[50], 0.002, 0.5, t0}};
  const std::vector<OperationalEvent> outage{{pump, t0, 1e9}};
  const auto first = engine.replay({.leaks = a}, 4, 3);
  (void)engine.replay({.leaks = b, .operations = outage}, 4, 3);
  const auto again = engine.replay({.leaks = a}, 4, 3);
  expect_results_equal(first, again);

  ReplayEngine fresh(baseline);
  expect_results_equal(first, fresh.replay({.leaks = a}, 4, 3));
}

TEST(Replay, SolverCloneSolvesIdentically) {
  const Network net = networks::make_wssc_subnet();
  const GgaSolver prototype(net);
  Network copy = net;
  copy.set_emitter(copy.junction_ids()[10], 0.004);
  const GgaSolver cloned(copy, prototype);
  const GgaSolver fresh(copy);
  const auto a = cloned.solve_snapshot();
  const auto b = fresh.solve_snapshot();
  ASSERT_EQ(a.iterations, b.iterations);
  for (NodeId v = 0; v < net.num_nodes(); ++v) EXPECT_TRUE(bits_equal(a.head[v], b.head[v]));
  for (LinkId l = 0; l < net.num_links(); ++l) EXPECT_TRUE(bits_equal(a.flow[l], b.flow[l]));
}

TEST(Replay, SolverCloneUsesItsOwnNetworksGeometry) {
  // The clone shares the prototype's assembly and symbolic analysis but
  // must take its head-loss coefficients from the network it binds, not
  // from the prototype's.
  const Network net = networks::make_epa_net();
  const GgaSolver prototype(net);
  Network rough = net;
  for (LinkId l = 0; l < rough.num_links(); ++l) {
    if (rough.link(l).type == LinkType::kPipe) rough.link(l).roughness *= 0.7;
  }
  rough.set_emitter(rough.junction_ids()[20], 0.003);
  const GgaSolver cloned(rough, prototype);
  const GgaSolver fresh(rough);
  const auto a = cloned.solve_snapshot();
  const auto b = fresh.solve_snapshot();
  ASSERT_TRUE(a.converged);
  ASSERT_EQ(a.iterations, b.iterations);
  for (NodeId v = 0; v < net.num_nodes(); ++v) EXPECT_TRUE(bits_equal(a.head[v], b.head[v]));
  for (LinkId l = 0; l < net.num_links(); ++l) EXPECT_TRUE(bits_equal(a.flow[l], b.flow[l]));
  // And the roughness change is visible, so the comparison has teeth.
  const auto smooth = prototype.solve_snapshot();
  const NodeId probe = net.junction_ids()[40];
  EXPECT_GT(std::abs(smooth.head[probe] - a.head[probe]), 1e-3);
}

TEST(Replay, SolverCloneRejectsDifferentTopology) {
  const Network epa = networks::make_epa_net();
  const GgaSolver prototype(epa);
  const Network wssc = networks::make_wssc_subnet();
  EXPECT_THROW(GgaSolver(wssc, prototype), InvalidArgument);
}

TEST(Replay, Validation) {
  const Network net = networks::make_epa_net();
  SimulationOptions options;
  options.duration_s = 8 * options.hydraulic_step_s;
  const BaselineTrajectory baseline(net, options, 7);
  ReplayEngine engine(baseline);

  const ScenarioDynamics none{};
  EXPECT_THROW(engine.replay(none, 10, 2), InvalidArgument);  // covers only <= 8
  EXPECT_THROW(engine.replay(none, 2, 0), InvalidArgument);   // no steps
  // Step 0 has no predecessor to resume from: it runs from the start.
  Simulation healthy(net, options);
  expect_results_equal(engine.replay(none, 0, healthy.num_steps()), healthy.run());

  // Every event must start at or after the resume time: an earlier one
  // would have perturbed the checkpoint itself.
  const double t3 = 3 * options.hydraulic_step_s;
  const std::vector<LeakEvent> leak{{net.junction_ids()[0], 0.003, 0.5, t3}};
  EXPECT_THROW(engine.replay({.leaks = leak}, 5, 2), InvalidArgument);
  EXPECT_NO_THROW(engine.replay({.leaks = leak}, 3, 2));
  const double t6 = 6 * options.hydraulic_step_s;
  LinkId pump = 0;
  while (net.link(pump).type != LinkType::kPump) ++pump;
  const std::vector<OperationalEvent> outage{{pump, t3, t6}};
  EXPECT_THROW(engine.replay({.operations = outage}, 5, 2), InvalidArgument);
  EXPECT_NO_THROW(engine.replay({.operations = outage}, 3, 2));
  const std::vector<DemandEvent> surge{{net.junction_ids()[0], 2.0, t3, t6}};
  EXPECT_THROW(engine.replay({.demands = surge}, 5, 2), InvalidArgument);
  EXPECT_NO_THROW(engine.replay({.demands = surge}, 3, 2));
  // A tank drawdown changes step 0, so no checkpoint serves it.
  EXPECT_THROW(engine.replay({.tank_init_scale = 0.5}, 3, 2), InvalidArgument);
  EXPECT_NO_THROW(engine.replay({.tank_init_scale = 0.5}, 0, 2));
}

}  // namespace
}  // namespace aqua::hydraulics

namespace aqua::core {
namespace {

using hydraulics::Network;

std::vector<LeakScenario> make_scenarios(const Network& net, bool cold, std::size_t count,
                                         std::uint64_t seed) {
  ScenarioConfig config;
  config.max_events = 3;
  config.cold_weather = cold;
  config.seed = seed;
  ScenarioGenerator generator(net, config);
  return generator.generate(count);
}

void expect_batches_equal(const SnapshotBatch& a, const SnapshotBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a.snapshots(i);
    const auto& sb = b.snapshots(i);
    EXPECT_EQ(sa.before_pressure, sb.before_pressure) << "scenario " << i;
    EXPECT_EQ(sa.before_flow, sb.before_flow) << "scenario " << i;
    EXPECT_EQ(sa.after_pressure, sb.after_pressure) << "scenario " << i;
    EXPECT_EQ(sa.after_flow, sb.after_flow) << "scenario " << i;
    EXPECT_EQ(sa.day_fraction, sb.day_fraction) << "scenario " << i;
  }
}

TEST(ReplayBatch, ReplayEqualsFullSimulationPathWarm) {
  const Network net = networks::make_epa_net();
  const auto scenarios = make_scenarios(net, false, 10, 21);
  const SnapshotBatch full(net, scenarios, {1, 4}, {}, true, false);
  const SnapshotBatch replay(net, scenarios, {1, 4}, {}, true, true);
  expect_batches_equal(full, replay);

  // Datasets assembled from identical snapshots with identical seeds must
  // be byte-identical too.
  const auto sensors = sensing::full_observation(net);
  const auto da = full.build_dataset(scenarios, sensors, 1, {}, 77);
  const auto db = replay.build_dataset(scenarios, sensors, 1, {}, 77);
  EXPECT_EQ(da.features.data(), db.features.data());
  EXPECT_EQ(da.labels, db.labels);
}

TEST(ReplayBatch, ReplayEqualsFullSimulationPathCold) {
  // Cold-weather scenarios draw freeze-driven multi-leak events; the
  // replay contract must hold there too.
  const Network net = networks::make_epa_net();
  const auto scenarios = make_scenarios(net, true, 8, 5);
  const SnapshotBatch full(net, scenarios, {1}, {}, true, false);
  const SnapshotBatch replay(net, scenarios, {1}, {}, true, true);
  expect_batches_equal(full, replay);
}

TEST(ReplayBatch, ReplayEqualsFullSimulationPathWssc) {
  const Network net = networks::make_wssc_subnet();
  const auto scenarios = make_scenarios(net, false, 6, 11);
  const SnapshotBatch full(net, scenarios, {2}, {}, true, false);
  const SnapshotBatch replay(net, scenarios, {2}, {}, true, true);
  expect_batches_equal(full, replay);
}

TEST(ReplayBatch, ParallelReplayIsDeterministic) {
  const Network net = networks::make_epa_net();
  const auto scenarios = make_scenarios(net, false, 12, 33);
  const SnapshotBatch serial(net, scenarios, {1, 3}, {}, false, true);
  const SnapshotBatch parallel(net, scenarios, {1, 3}, {}, true, true);
  expect_batches_equal(serial, parallel);
}

TEST(ReplayBatch, StatsAccountForSharedBaseline) {
  const Network net = networks::make_epa_net();
  const auto scenarios = make_scenarios(net, false, 10, 21);
  const SnapshotBatch replay(net, scenarios, {1, 4}, {}, true, true);
  std::size_t max_slot = 0;
  for (const auto& s : scenarios) max_slot = std::max(max_slot, s.leak_slot);

  const auto& stats = replay.stats();
  EXPECT_EQ(stats.scenarios, scenarios.size());
  EXPECT_EQ(stats.baseline_steps, max_slot);  // steps 0 .. max_slot-1, once
  EXPECT_EQ(stats.scenario_steps, scenarios.size() * 5);  // max elapsed 4 -> 5 steps each
  EXPECT_GE(stats.engines_built, 1u);
  EXPECT_GT(stats.baseline_linear_solves, 0u);
  EXPECT_GT(stats.scenario_linear_solves, 0u);

  // A batch that resumes nothing records a one-step baseline, for the
  // engines to clone its solver.
  const SnapshotBatch full(net, scenarios, {1, 4}, {}, true, false);
  EXPECT_EQ(full.stats().baseline_steps, 1u);
  EXPECT_EQ(full.stats().replayed, 0u);
  EXPECT_EQ(full.stats().full_run, scenarios.size());
  EXPECT_GE(full.stats().engines_built, 1u);
  // The headline inequality: replay solves a small fraction of the full
  // path's hydraulic steps.
  EXPECT_LT(replay.stats().total_steps() * 2, full.stats().total_steps());
}

TEST(ReplayBatch, FeaturesIntoMatchesAllocatingFeatures) {
  const Network net = networks::make_epa_net();
  const auto scenarios = make_scenarios(net, false, 4, 9);
  const SnapshotBatch batch(net, scenarios, {1});
  const auto sensors = sensing::full_observation(net);
  const sensing::NoiseModel noise;

  Rng rng_a(123), rng_b(123);
  const auto allocated = batch.features(2, sensors, 0, noise, rng_a, true);
  std::vector<double> into(sensors.size() + 1);
  batch.features_into(2, sensors, 0, noise, rng_b, true, {}, into);
  EXPECT_EQ(allocated, into);

  std::vector<double> wrong(sensors.size() + 2);
  EXPECT_THROW(batch.features_into(2, sensors, 0, noise, rng_b, true, {}, wrong),
               InvalidArgument);
}

}  // namespace
}  // namespace aqua::core
