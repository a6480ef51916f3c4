#include "hydraulics/simulation.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "networks/builtin.hpp"

namespace aqua::hydraulics {
namespace {

Network small() {
  Network net("small");
  const int p = net.add_pattern({"d", {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0,
                                       1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0,
                                       1.0, 1.0}});
  const NodeId r = net.add_reservoir("R", 55.0);
  const NodeId a = net.add_junction("A", 10.0, 5.0, p);
  const NodeId b = net.add_junction("B", 12.0, 3.0, p);
  net.add_pipe("P1", r, a, 300.0, 0.3, 120.0);
  net.add_pipe("P2", a, b, 200.0, 0.25, 115.0);
  return net;
}

TEST(Simulation, StepCountMatchesDuration) {
  SimulationOptions options;
  options.duration_s = 4 * 3600.0;
  options.hydraulic_step_s = 900.0;
  Simulation sim(small(), options);
  EXPECT_EQ(sim.num_steps(), 17u);  // 16 intervals + initial state
  const auto results = sim.run();
  EXPECT_EQ(results.num_steps(), 17u);
  EXPECT_DOUBLE_EQ(results.time(0), 0.0);
  EXPECT_DOUBLE_EQ(results.time(16), 4 * 3600.0);
}

TEST(Simulation, NumStepsSurvivesInexactDivision) {
  // 0.3 / 0.1 == 2.999...96 in binary: the old truncating cast dropped the
  // final step of any horizon whose duration/step quotient lands at k - ulp.
  SimulationOptions options;
  options.duration_s = 0.3;
  options.hydraulic_step_s = 0.1;
  Simulation sim(small(), options);
  EXPECT_EQ(sim.num_steps(), 4u);  // steps at t = 0, 0.1, 0.2, 0.3

  options.duration_s = 3 * 0.7;    // 2.0999999999999996
  options.hydraulic_step_s = 0.7;
  Simulation sim2(small(), options);
  EXPECT_EQ(sim2.num_steps(), 4u);

  // Non-multiples still floor.
  options.duration_s = 1000.0;
  options.hydraulic_step_s = 900.0;
  Simulation sim3(small(), options);
  EXPECT_EQ(sim3.num_steps(), 2u);
}

TEST(Simulation, LeakedVolumeMatchesManualTrapezoid) {
  // leaked_volume() integrates the cached per-step emitter totals; it must
  // agree exactly with the trapezoid computed from the per-node series.
  SimulationOptions options;
  options.duration_s = 4 * 3600.0;
  Simulation sim(small(), options);
  const std::vector<LeakEvent> leaks{{small().node_id("A"), 0.002, 0.5, 900.0},
                                     {small().node_id("B"), 0.001, 0.5, 2700.0}};
  const auto results = sim.run({.leaks = leaks});
  double manual = 0.0;
  for (std::size_t s = 0; s + 1 < results.num_steps(); ++s) {
    double now = 0.0, next = 0.0;
    for (NodeId v = 0; v < results.num_nodes(); ++v) {
      now += results.emitter_outflow(s, v);
      next += results.emitter_outflow(s + 1, v);
    }
    manual += 0.5 * (now + next) * (results.time(s + 1) - results.time(s));
  }
  EXPECT_DOUBLE_EQ(results.leaked_volume(), manual);
  EXPECT_GT(results.leaked_volume(), 0.0);
}

TEST(Simulation, ResultsTrackLinearSolveCount) {
  SimulationOptions options;
  options.duration_s = 2 * 3600.0;
  Simulation sim(small(), options);
  const auto results = sim.run();
  // Every step needs at least one Newton iteration (= one inner solve).
  EXPECT_GE(results.total_linear_solves(), results.num_steps());
}

TEST(Simulation, PatternRaisesDemandAndDropsPressure) {
  SimulationOptions options;
  options.duration_s = 8 * 3600.0;
  Simulation sim(small(), options);
  const auto results = sim.run();
  const Network net = small();
  const NodeId b = net.node_id("B");
  // Hour 6-8 has multiplier 2 -> lower pressure than hour 0.
  const auto low = results.step_at(0.0);
  const auto high = results.step_at(6.5 * 3600.0);
  EXPECT_LT(results.pressure(high, b), results.pressure(low, b));
}

TEST(Simulation, LeakActivatesAtScheduledSlot) {
  SimulationOptions options;
  options.duration_s = 4 * 3600.0;
  Simulation sim(small(), options);
  const Network net = small();
  const NodeId a = net.node_id("A");
  const std::vector<LeakEvent> leak{{a, 0.003, 0.5, 2 * 3600.0}};
  const auto results = sim.run({.leaks = leak});
  const auto before = results.step_at(2 * 3600.0 - 900.0);
  const auto after = results.step_at(2 * 3600.0);
  EXPECT_DOUBLE_EQ(results.emitter_outflow(before, a), 0.0);
  EXPECT_GT(results.emitter_outflow(after, a), 0.0);
  EXPECT_LT(results.pressure(after, a), results.pressure(before, a));
}

TEST(Simulation, LeakPersistsToEndOfRun) {
  SimulationOptions options;
  options.duration_s = 4 * 3600.0;
  Simulation sim(small(), options);
  const NodeId a = small().node_id("A");
  const std::vector<LeakEvent> leak{{a, 0.003, 0.5, 3600.0}};
  const auto results = sim.run({.leaks = leak});
  for (std::size_t s = results.step_at(3600.0); s < results.num_steps(); ++s) {
    EXPECT_GT(results.emitter_outflow(s, a), 0.0) << "step " << s;
  }
}

TEST(Simulation, LeakedVolumeIsPositiveAndBounded) {
  SimulationOptions options;
  options.duration_s = 4 * 3600.0;
  Simulation sim(small(), options);
  const NodeId a = small().node_id("A");
  const std::vector<LeakEvent> leak{{a, 0.002, 0.5, 0.0}};
  const auto results = sim.run({.leaks = leak});
  const double volume = results.leaked_volume();
  EXPECT_GT(volume, 0.0);
  // Upper bound: max outflow times duration.
  double max_rate = 0.0;
  for (std::size_t s = 0; s < results.num_steps(); ++s) {
    max_rate = std::max(max_rate, results.emitter_outflow(s, a));
  }
  EXPECT_LE(volume, max_rate * options.duration_s * 1.001);
}

TEST(Simulation, MultipleConcurrentLeaks) {
  SimulationOptions options;
  options.duration_s = 2 * 3600.0;
  Simulation sim(small(), options);
  const Network net = small();
  const std::vector<LeakEvent> leaks{{net.node_id("A"), 0.002, 0.5, 3600.0},
                                     {net.node_id("B"), 0.003, 0.5, 3600.0}};
  const auto results = sim.run({.leaks = leaks});
  const auto step = results.step_at(3600.0);
  EXPECT_GT(results.emitter_outflow(step, net.node_id("A")), 0.0);
  EXPECT_GT(results.emitter_outflow(step, net.node_id("B")), 0.0);
}

void expect_same_pressures(const SimulationResults& a, const SimulationResults& b) {
  ASSERT_EQ(a.num_steps(), b.num_steps());
  for (std::size_t s = 0; s < a.num_steps(); ++s) {
    for (NodeId v = 0; v < a.num_nodes(); ++v) {
      EXPECT_EQ(a.pressure(s, v), b.pressure(s, v)) << "step " << s << " node " << v;
    }
  }
}

TEST(Simulation, RunsAreRepeatable) {
  SimulationOptions options;
  options.duration_s = 2 * 3600.0;
  Simulation sim(small(), options);
  const std::vector<LeakEvent> leak{{small().node_id("A"), 0.002, 0.5, 1800.0}};
  expect_same_pressures(sim.run({.leaks = leak}), sim.run({.leaks = leak}));

  // A closure still in force when a run ends must not carry over: the next
  // run on the same Simulation starts from the links' base status.
  const Network net = small();
  const std::vector<OperationalEvent> closure{{net.link_id("P2"), 3600.0, 1e9}};
  const auto healthy = sim.run();
  (void)sim.run({.operations = closure});
  expect_same_pressures(sim.run(), healthy);
}

TEST(Simulation, RunValidatesItsDynamics) {
  Simulation sim(small(), {});
  const Network net = small();
  for (const LeakEvent& bad : {LeakEvent{net.node_id("R"), 0.002, 0.5, 0.0},
                               LeakEvent{net.node_id("A"), 0.0, 0.5, 0.0},
                               LeakEvent{net.node_id("A"), 0.002, 0.5, -5.0}}) {
    EXPECT_THROW((ScenarioDynamics{.leaks = {&bad, 1}}.validate(net)), InvalidArgument);
    EXPECT_THROW(sim.run({.leaks = {&bad, 1}}), InvalidArgument);
  }
}

TEST(Simulation, StepAtClampsAndSelects) {
  SimulationOptions options;
  options.duration_s = 3600.0;
  Simulation sim(small(), options);
  const auto results = sim.run();
  EXPECT_EQ(results.step_at(-100.0), 0u);
  EXPECT_EQ(results.step_at(0.0), 0u);
  EXPECT_EQ(results.step_at(950.0), 1u);
  EXPECT_EQ(results.step_at(1e9), results.num_steps() - 1);
}

TEST(Simulation, TankLevelRespondsToDraw) {
  // Tank-only source: levels must drop as demand drains it.
  Network net("tankdrain");
  const NodeId t = net.add_tank("T", 30.0, 5.0, 0.5, 8.0, 8.0);
  const NodeId a = net.add_junction("A", 5.0, 10.0);
  net.add_pipe("P", t, a, 100.0, 0.3, 120.0);
  SimulationOptions options;
  options.duration_s = 6 * 3600.0;
  Simulation sim(net, options);
  const auto results = sim.run();
  // Tank head (= elevation + level) must decline over the run.
  EXPECT_LT(results.head(results.num_steps() - 1, t), results.head(0, t));
}

TEST(Simulation, EpaNetFullDayRuns) {
  SimulationOptions options;
  options.duration_s = 24 * 3600.0;
  Simulation sim(networks::make_epa_net(), options);
  const auto results = sim.run();
  EXPECT_EQ(results.num_steps(), 97u);
  // All junction pressures stay positive through the day.
  const auto net = networks::make_epa_net();
  for (std::size_t s = 0; s < results.num_steps(); ++s) {
    for (const NodeId v : net.junction_ids()) {
      EXPECT_GT(results.pressure(s, v), 0.0) << "step " << s << " node " << v;
    }
  }
}

}  // namespace
}  // namespace aqua::hydraulics
