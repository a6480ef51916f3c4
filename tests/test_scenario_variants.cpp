// Property suite for the scenario-diversity engine (DESIGN.md §15): each
// variant family's documented physical/transform effect, the replay ≡
// full-run bit-identity for every baseline-compatible variant on both
// builtin networks, the step-0 runs for variants that invalidate the
// baseline, and the generator's fixed-draw-count determinism contract
// (prefix stability; fault specs never perturb the base leak stream).
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/scenario.hpp"
#include "core/snapshots.hpp"
#include "hydraulics/replay.hpp"
#include "networks/builtin.hpp"
#include "sensing/sensors.hpp"

namespace aqua::core {
namespace {

constexpr double kSlot = 900.0;

bool snapshots_identical(const SnapshotBatch& a, const SnapshotBatch& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a.snapshots(i);
    const auto& sb = b.snapshots(i);
    if (sa.before_pressure != sb.before_pressure || sa.before_flow != sb.before_flow ||
        sa.after_pressure != sb.after_pressure || sa.after_flow != sb.after_flow ||
        sa.day_fraction != sb.day_fraction) {
      return false;
    }
  }
  return true;
}

// --- Operational events ---------------------------------------------------

TEST(OperationalEvents, PumpOutageZeroesFlowDuringWindowOnly) {
  const auto net = networks::make_epa_net();
  const auto pump = net.link_id("PU1");

  hydraulics::Simulation baseline(net, {});
  const auto healthy = baseline.run();

  const std::vector<hydraulics::OperationalEvent> outage{{pump, 8 * kSlot, 12 * kSlot}};
  const auto results = hydraulics::Simulation(net, {}).run({.operations = outage});

  // Healthy pump moves real water at every probed step.
  for (const std::size_t step : {6, 8, 10, 11, 14}) {
    ASSERT_GT(std::abs(healthy.flow(step, pump)), 1e-4) << "step " << step;
  }
  // Forced-closed: the 1e8 closed-resistance leaves only numerically tiny
  // leakage through the link.
  for (const std::size_t step : {8, 10, 11}) {
    EXPECT_LT(std::abs(results.flow(step, pump)), 1e-6) << "step " << step;
  }
  // Outside the window the pump works; before the window the trajectory is
  // even bit-identical to the healthy run (nothing has happened yet).
  for (const std::size_t step : {6, 14}) {
    EXPECT_GT(std::abs(results.flow(step, pump)), 1e-4) << "step " << step;
  }
  for (std::size_t step = 0; step < 8; ++step) {
    for (hydraulics::NodeId v = 0; v < net.num_nodes(); ++v) {
      ASSERT_EQ(results.pressure(step, v), healthy.pressure(step, v)) << "step " << step;
    }
  }
}

TEST(OperationalEvents, ValveClosureIsolatesDownstreamDemand) {
  const auto net = networks::make_epa_net();
  const auto valve = net.link_id("V1");
  const auto downstream = net.link(valve).to;

  hydraulics::Simulation baseline(net, {});
  const auto healthy = baseline.run();

  const std::vector<hydraulics::OperationalEvent> closure{{valve, 10 * kSlot, 16 * kSlot}};
  const auto results = hydraulics::Simulation(net, {}).run({.operations = closure});

  for (const std::size_t step : {10, 12, 15}) {
    ASSERT_GT(std::abs(healthy.flow(step, valve)), 1e-5) << "step " << step;
    EXPECT_LT(std::abs(results.flow(step, valve)), 1e-6) << "step " << step;
    // The node fed through the valve loses supply pressure while its
    // demand keeps drawing: pressure must drop relative to healthy.
    EXPECT_LT(results.pressure(step, downstream), healthy.pressure(step, downstream))
        << "step " << step;
  }
}

TEST(OperationalEvents, DynamicsValidation) {
  const auto net = networks::make_epa_net();
  const auto rejects = [&](hydraulics::OperationalEvent op) {
    const std::vector<hydraulics::OperationalEvent> ops{op};
    EXPECT_THROW(hydraulics::ScenarioDynamics{.operations = ops}.validate(net), InvalidArgument);
  };
  rejects({0, 900.0, 900.0});  // empty window
  rejects({net.num_links(), 0.0, 900.0});
  rejects({0, -900.0, 900.0});
}

// --- Time-varying (ramping) leaks ----------------------------------------

TEST(LeakRamp, CoefficientRampIsMonotoneAndClamped) {
  hydraulics::LeakEvent event;
  event.coefficient = 0.004;
  event.start_time_s = 10 * kSlot;
  event.ramp_s = 4 * kSlot;
  EXPECT_EQ(event.coefficient_at(9 * kSlot), 0.0);
  EXPECT_EQ(event.coefficient_at(10 * kSlot), 0.0);  // ramp starts from zero
  EXPECT_DOUBLE_EQ(event.coefficient_at(12 * kSlot), 0.002);
  EXPECT_DOUBLE_EQ(event.coefficient_at(14 * kSlot), 0.004);
  EXPECT_DOUBLE_EQ(event.coefficient_at(20 * kSlot), 0.004);  // clamped at full size
  double previous = -1.0;
  for (int s = 0; s <= 30; ++s) {
    const double ec = event.coefficient_at(s * kSlot / 2.0);
    EXPECT_GE(ec, previous);
    previous = ec;
  }
  // ramp_s = 0 reduces exactly to the paper's instantaneous model.
  event.ramp_s = 0.0;
  EXPECT_EQ(event.coefficient_at(10 * kSlot), 0.004);
}

TEST(LeakRamp, RampedLeakGrowsAndLeaksLessThanConstant) {
  const auto net = networks::make_epa_net();
  hydraulics::NodeId node = 0;
  for (hydraulics::NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node(v).type == hydraulics::NodeType::kJunction) {
      node = v;
      break;
    }
  }
  hydraulics::LeakEvent event;
  event.node = node;
  event.coefficient = 0.004;
  event.start_time_s = 10 * kSlot;

  hydraulics::Simulation sim(net, {});
  const auto constant = sim.run({.leaks = {&event, 1}});

  event.ramp_s = 6 * kSlot;
  const auto ramped = sim.run({.leaks = {&event, 1}});

  // At onset the ramp is still at EC = 0; by the end of the ramp the
  // emitter runs at full size.
  EXPECT_EQ(ramped.emitter_outflow(10, node), 0.0);
  EXPECT_GT(ramped.emitter_outflow(13, node), 0.0);
  EXPECT_GT(ramped.emitter_outflow(16, node), ramped.emitter_outflow(13, node));
  EXPECT_GT(constant.emitter_outflow(10, node), 0.0);
  // The monotone EC schedule can never out-leak the constant-EC leak.
  EXPECT_LT(ramped.leaked_volume(), constant.leaked_volume());
  EXPECT_GT(ramped.leaked_volume(), 0.0);
}

// --- Demand surges --------------------------------------------------------

TEST(DemandSurge, PerturbsOnlyTheWindowForward) {
  const auto net = networks::make_epa_net();
  hydraulics::NodeId surge_node = 0;
  for (hydraulics::NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node(v).type == hydraulics::NodeType::kJunction && net.node(v).base_demand > 0.0) {
      surge_node = v;
      break;
    }
  }

  hydraulics::Simulation baseline(net, {});
  const auto healthy = baseline.run();

  const std::vector<hydraulics::DemandEvent> surge{{surge_node, 4.0, 12 * kSlot, 16 * kSlot}};
  const auto results = hydraulics::Simulation(net, {}).run({.demands = surge});

  // Bit-identical before the window opens...
  for (std::size_t step = 0; step < 12; ++step) {
    for (hydraulics::NodeId v = 0; v < net.num_nodes(); ++v) {
      ASSERT_EQ(results.pressure(step, v), healthy.pressure(step, v)) << "step " << step;
    }
  }
  // ...and a real hydraulic difference inside it (extra draw lowers the
  // surged junction's pressure).
  for (const std::size_t step : {12, 14, 15}) {
    EXPECT_LT(results.pressure(step, surge_node), healthy.pressure(step, surge_node))
        << "step " << step;
  }
}

TEST(DemandSurge, DynamicsValidation) {
  const auto net = networks::make_epa_net();
  hydraulics::NodeId reservoir = 0;
  for (hydraulics::NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node(v).type != hydraulics::NodeType::kJunction) reservoir = v;
  }
  const auto rejects = [&](hydraulics::DemandEvent event) {
    const std::vector<hydraulics::DemandEvent> demands{event};
    EXPECT_THROW(hydraulics::ScenarioDynamics{.demands = demands}.validate(net), InvalidArgument);
  };
  rejects({reservoir, 2.0, 0.0, 900.0});
  rejects({0, 0.0, 0.0, 900.0});
  rejects({0, 2.0, 900.0, 900.0});
}

// --- Tank drawdown --------------------------------------------------------

TEST(TankDrawdown, ScalesInitialLevelsAndRefusesReplay) {
  const auto net = networks::make_epa_net();
  hydraulics::NodeId tank = 0;
  for (hydraulics::NodeId v = 0; v < net.num_nodes(); ++v) {
    if (net.node(v).type == hydraulics::NodeType::kTank) tank = v;
  }

  hydraulics::Simulation sim(net, {});
  const auto full_levels = sim.run();
  const hydraulics::ScenarioDynamics drawdown{.tank_init_scale = 0.5};
  const auto drawn = sim.run(drawdown);

  // Tank head reflects level (head = elevation + level): the drawn-down
  // start must sit strictly below the baseline at t = 0.
  EXPECT_LT(drawn.head(0, tank), full_levels.head(0, tank));

  // The scaled start invalidates every baseline checkpoint: a stepper
  // with a scaled start refuses to resume from one.
  const hydraulics::SimulationOptions options;
  const hydraulics::BaselineTrajectory baseline(net, options, 20);
  hydraulics::Network copy = net;
  const hydraulics::GgaSolver solver(copy, options.solver);
  hydraulics::EpsStepper stepper(copy, solver, options);
  EXPECT_FALSE(drawdown.resumable_at(10 * kSlot));
  EXPECT_THROW(
      stepper.resume(drawdown, 10, baseline.tank_levels_entering(10), baseline.state_at(9)),
      InvalidArgument);
  EXPECT_THROW(sim.run({.tank_init_scale = 0.0}), InvalidArgument);
}

// --- Sensor-fault layer ---------------------------------------------------

TEST(SensorFaults, TransformsMatchTheDocumentedContract) {
  using sensing::SensorFault;
  using sensing::SensorFaultKind;
  const double reading = 3.25;

  SensorFault fault{SensorFaultKind::kDropout, 0, 99.0, 5};
  EXPECT_EQ(sensing::apply_sensor_fault(fault, reading, 4), reading);  // pre-onset
  EXPECT_EQ(sensing::apply_sensor_fault(fault, reading, 5), 0.0);

  fault = {SensorFaultKind::kStuckAt, 0, 1.5, 5};
  EXPECT_EQ(sensing::apply_sensor_fault(fault, reading, 7), 1.5);

  fault = {SensorFaultKind::kDrift, 0, 0.25, 5};
  EXPECT_EQ(sensing::apply_sensor_fault(fault, reading, 5), reading);  // zero slots elapsed
  EXPECT_DOUBLE_EQ(sensing::apply_sensor_fault(fault, reading, 9), reading + 0.25 * 4.0);

  fault = {SensorFaultKind::kBias, 0, -0.75, 5};
  EXPECT_DOUBLE_EQ(sensing::apply_sensor_fault(fault, reading, 5), reading - 0.75);
}

TEST(SensorFaults, ResolvePositionsAndApplyInListOrder) {
  std::vector<sensing::SensorFaultDraw> draws(2);
  draws[0] = {sensing::SensorFaultKind::kBias, 0.99, 1.0, 0};
  draws[1] = {sensing::SensorFaultKind::kStuckAt, 0.0, 7.0, 0};
  const auto faults = sensing::resolve_sensor_faults(draws, 10);
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].sensor, 9u);  // floor(0.99 * 10)
  EXPECT_EQ(faults[1].sensor, 0u);

  // Two faults landing on one sensor compose in list order. A bias from
  // slot 0 and then a stuck-at from the leak slot: the stuck "after"
  // reading overrides the bias, while the "before" reading keeps it, so
  // the Δ is the stuck-at-only Δ minus the bias. In the other order the
  // bias would shift both readings and cancel.
  const auto net = networks::make_epa_net();
  ScenarioConfig config;
  config.max_events = 1;
  config.seed = 556;
  const auto scenarios = ScenarioGenerator(net, config).generate(1);
  const SnapshotBatch batch(net, scenarios, {1}, {});
  const auto sensors = sensing::full_observation(net);
  const std::size_t leak_slot = scenarios[0].leak_slot;
  const std::vector<sensing::SensorFault> stuck = {
      {sensing::SensorFaultKind::kStuckAt, 0, 7.0, leak_slot}};
  const std::vector<sensing::SensorFault> stacked = {
      {sensing::SensorFaultKind::kBias, 0, 1.0, 0},
      {sensing::SensorFaultKind::kStuckAt, 0, 7.0, leak_slot}};
  std::vector<double> stuck_only(sensors.size()), both(sensors.size());
  Rng rng_a(43), rng_b(43);
  batch.features_into(0, sensors, 0, {}, rng_a, false, stuck, stuck_only);
  batch.features_into(0, sensors, 0, {}, rng_b, false, stacked, both);
  EXPECT_DOUBLE_EQ(both[0], stuck_only[0] - 1.0);
  for (std::size_t k = 1; k < sensors.size(); ++k) EXPECT_EQ(both[k], stuck_only[k]) << k;

  EXPECT_THROW(sensing::resolve_sensor_faults(
                   std::vector<sensing::SensorFaultDraw>{
                       {sensing::SensorFaultKind::kBias, 1.0, 0.0, 0}},
                   10),
               InvalidArgument);
}

TEST(SensorFaults, FeatureDeltasShiftExactlyAsDocumented) {
  const auto net = networks::make_epa_net();
  ScenarioConfig config;
  config.max_events = 1;
  config.seed = 555;
  ScenarioGenerator generator(net, config);
  const auto scenarios = generator.generate(1);
  const SnapshotBatch batch(net, scenarios, {1}, {});
  const auto sensors = sensing::full_observation(net);
  const sensing::NoiseModel noise;
  const std::size_t leak_slot = scenarios[0].leak_slot;

  std::vector<double> clean(sensors.size() + 1), faulted(sensors.size() + 1);
  // A bias starting AT the leak slot hits only the "after" reading, so the
  // Δ of the faulted sensor moves by exactly the bias value (same noise
  // stream on both sides).
  const std::vector<sensing::SensorFault> bias = {
      {sensing::SensorFaultKind::kBias, 3, 0.5, leak_slot}};
  Rng rng_a(42), rng_b(42);
  batch.features_into(0, sensors, 0, noise, rng_a, true, {}, clean);
  batch.features_into(0, sensors, 0, noise, rng_b, true, bias, faulted);
  for (std::size_t k = 0; k < clean.size(); ++k) {
    if (k == 3) {
      EXPECT_DOUBLE_EQ(faulted[k], clean[k] + 0.5);
    } else {
      EXPECT_EQ(faulted[k], clean[k]) << "sensor " << k;
    }
  }

  // A dropout active from slot 0 zeroes both readings: Δ = 0 exactly.
  const std::vector<sensing::SensorFault> dropout = {
      {sensing::SensorFaultKind::kDropout, 7, 0.0, 0}};
  Rng rng_c(42);
  batch.features_into(0, sensors, 0, noise, rng_c, true, dropout, faulted);
  EXPECT_EQ(faulted[7], 0.0);

  // A bias active before both slots cancels in the Δ.
  const std::vector<sensing::SensorFault> early_bias = {
      {sensing::SensorFaultKind::kBias, 3, 0.5, 0}};
  Rng rng_d(42);
  batch.features_into(0, sensors, 0, noise, rng_d, true, early_bias, faulted);
  EXPECT_DOUBLE_EQ(faulted[3], clean[3]);
}

// --- Replay compatibility and fallback ------------------------------------

void expect_mixed_corpus_replay_identity(const hydraulics::Network& net) {
  ScenarioConfig config;
  config.max_events = 2;
  config.seed = 8080;
  config.faults = {
      make_fault_spec(FaultKind::kPumpOutage, 0.5),
      make_fault_spec(FaultKind::kValveClosure, 0.5),
      make_fault_spec(FaultKind::kLeakRamp, 0.5),
      make_fault_spec(FaultKind::kDemandSurge, 0.5),
      make_fault_spec(FaultKind::kSensorBias, 0.5),
  };
  ScenarioGenerator generator(net, config);
  const auto scenarios = generator.generate(24);

  // Default specs start windows at/after the leak slot, so every scenario
  // stays baseline-compatible and replays.
  std::size_t with_dynamics = 0;
  for (const auto& s : scenarios) {
    EXPECT_TRUE(s.dynamics().resumable_at(static_cast<double>(s.leak_slot) * kSlot));
    if (!s.operations.empty() || !s.demand_events.empty()) ++with_dynamics;
  }
  EXPECT_GT(with_dynamics, 0u) << "mix produced no hydraulic variants";

  const SnapshotBatch replay(net, scenarios, {1, 2}, {}, true, true);
  const SnapshotBatch full(net, scenarios, {1, 2}, {}, true, false);
  EXPECT_EQ(replay.stats().replayed, scenarios.size());
  EXPECT_EQ(replay.stats().full_run, 0u);
  EXPECT_EQ(full.stats().full_run, scenarios.size());
  EXPECT_TRUE(snapshots_identical(replay, full));
}

TEST(ReplayCompatibility, MixedVariantCorpusReplaysBitIdenticallyOnEpaNet) {
  expect_mixed_corpus_replay_identity(networks::make_epa_net());
}

TEST(ReplayCompatibility, MixedVariantCorpusReplaysBitIdenticallyOnWsscSubnet) {
  expect_mixed_corpus_replay_identity(networks::make_wssc_subnet());
}

TEST(ReplayCompatibility, BaselineInvalidatingVariantsFallBackToFullRuns) {
  const auto net = networks::make_epa_net();
  ScenarioConfig config;
  config.max_events = 2;
  config.seed = 9090;
  // Tank drawdown always invalidates the baseline; a valve closure opening
  // BEFORE the leak slot does too.
  FaultSpec early_valve = make_fault_spec(FaultKind::kValveClosure);
  early_valve.offset_min_slots = -3;
  early_valve.offset_max_slots = -1;
  config.faults = {make_fault_spec(FaultKind::kTankDrawdown), early_valve};
  ScenarioGenerator generator(net, config);
  const auto scenarios = generator.generate(8);

  for (const auto& s : scenarios) {
    EXPECT_FALSE(s.dynamics().resumable_at(static_cast<double>(s.leak_slot) * kSlot));
    EXPECT_NE(s.tank_init_scale, 1.0);
  }

  // The batch notices on its own, runs everything from step 0, and still
  // matches the forced-full batch exactly.
  const SnapshotBatch batch(net, scenarios, {1}, {}, true, true);
  EXPECT_EQ(batch.stats().replayed, 0u);
  EXPECT_EQ(batch.stats().full_run, scenarios.size());
  const SnapshotBatch full(net, scenarios, {1}, {}, true, false);
  EXPECT_TRUE(snapshots_identical(batch, full));
}

// --- Generator determinism contract ---------------------------------------

bool scenarios_equal(const LeakScenario& a, const LeakScenario& b) {
  if (a.leak_slot != b.leak_slot || a.truth != b.truth || a.frozen != b.frozen ||
      a.temperature_f != b.temperature_f || a.tank_init_scale != b.tank_init_scale ||
      a.variant_mask != b.variant_mask || a.events.size() != b.events.size() ||
      a.operations.size() != b.operations.size() ||
      a.demand_events.size() != b.demand_events.size() ||
      a.sensor_faults.size() != b.sensor_faults.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].node != b.events[i].node ||
        a.events[i].coefficient != b.events[i].coefficient ||
        a.events[i].start_time_s != b.events[i].start_time_s ||
        a.events[i].ramp_s != b.events[i].ramp_s) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.operations.size(); ++i) {
    if (a.operations[i].link != b.operations[i].link ||
        a.operations[i].start_time_s != b.operations[i].start_time_s ||
        a.operations[i].end_time_s != b.operations[i].end_time_s) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.demand_events.size(); ++i) {
    if (a.demand_events[i].node != b.demand_events[i].node ||
        a.demand_events[i].multiplier != b.demand_events[i].multiplier ||
        a.demand_events[i].start_time_s != b.demand_events[i].start_time_s ||
        a.demand_events[i].end_time_s != b.demand_events[i].end_time_s) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.sensor_faults.size(); ++i) {
    if (a.sensor_faults[i].kind != b.sensor_faults[i].kind ||
        a.sensor_faults[i].position != b.sensor_faults[i].position ||
        a.sensor_faults[i].value != b.sensor_faults[i].value ||
        a.sensor_faults[i].start_slot != b.sensor_faults[i].start_slot) {
      return false;
    }
  }
  return true;
}

ScenarioConfig mixed_config(std::uint64_t seed) {
  ScenarioConfig config;
  config.max_events = 3;
  config.seed = seed;
  config.faults = {
      make_fault_spec(FaultKind::kPumpOutage, 0.4),
      make_fault_spec(FaultKind::kValveClosure, 0.4),
      make_fault_spec(FaultKind::kLeakRamp, 0.4),
      make_fault_spec(FaultKind::kDemandSurge, 0.4),
      make_fault_spec(FaultKind::kTankDrawdown, 0.2),
      make_fault_spec(FaultKind::kSensorDropout, 0.3),
      make_fault_spec(FaultKind::kSensorBias, 0.3),
  };
  return config;
}

TEST(GeneratorDeterminism, GenerateIsPrefixStable) {
  const auto net = networks::make_epa_net();
  ScenarioGenerator a(net, mixed_config(777));
  ScenarioGenerator b(net, mixed_config(777));
  const auto hundred = a.generate(100);
  const auto two_hundred = b.generate(200);
  for (std::size_t i = 0; i < hundred.size(); ++i) {
    ASSERT_TRUE(scenarios_equal(hundred[i], two_hundred[i])) << "scenario " << i;
  }
}

TEST(GeneratorDeterminism, FaultSpecsDoNotShiftTheBaseLeakStream) {
  const auto net = networks::make_epa_net();
  ScenarioConfig plain;
  plain.max_events = 3;
  plain.seed = 777;
  ScenarioGenerator without(net, plain);
  ScenarioGenerator with(net, mixed_config(777));
  const auto clean = without.generate(50);
  const auto varied = with.generate(50);
  std::uint32_t fired = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    // Base leak fields are identical scenario for scenario; only the
    // variant layer differs.
    ASSERT_EQ(clean[i].leak_slot, varied[i].leak_slot) << i;
    ASSERT_EQ(clean[i].truth, varied[i].truth) << i;
    ASSERT_EQ(clean[i].events.size(), varied[i].events.size()) << i;
    for (std::size_t e = 0; e < clean[i].events.size(); ++e) {
      ASSERT_EQ(clean[i].events[e].node, varied[i].events[e].node) << i;
      ASSERT_EQ(clean[i].events[e].coefficient, varied[i].events[e].coefficient) << i;
    }
    EXPECT_EQ(clean[i].variant_mask, 0u);
    fired |= varied[i].variant_mask;
  }
  // Every family in the mix fired somewhere across 50 scenarios.
  for (const FaultKind kind :
       {FaultKind::kPumpOutage, FaultKind::kValveClosure, FaultKind::kLeakRamp,
        FaultKind::kDemandSurge, FaultKind::kTankDrawdown, FaultKind::kSensorDropout,
        FaultKind::kSensorBias}) {
    EXPECT_NE(fired & fault_bit(kind), 0u) << fault_kind_name(kind);
  }
}

TEST(GeneratorDeterminism, InapplicableSpecsNeverFireAndNeverPerturb) {
  // WSSC-SUBNET has no pumps and no tanks: those specs must be inert there
  // while still not perturbing any other draw.
  const auto net = networks::make_wssc_subnet();
  ScenarioConfig plain;
  plain.max_events = 2;
  plain.seed = 31;
  ScenarioConfig with_inert = plain;
  with_inert.faults = {make_fault_spec(FaultKind::kPumpOutage),
                       make_fault_spec(FaultKind::kTankDrawdown)};
  ScenarioGenerator a(net, plain);
  ScenarioGenerator b(net, with_inert);
  const auto clean = a.generate(20);
  const auto inert = b.generate(20);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_TRUE(inert[i].operations.empty());
    EXPECT_EQ(inert[i].tank_init_scale, 1.0);
    EXPECT_EQ(inert[i].variant_mask, 0u);
    ASSERT_TRUE(scenarios_equal(clean[i], inert[i])) << "scenario " << i;
  }
}

TEST(GeneratorDeterminism, SpecValidation) {
  const auto net = networks::make_epa_net();
  ScenarioConfig config;
  FaultSpec bad = make_fault_spec(FaultKind::kDemandSurge);
  bad.probability = 1.5;
  config.faults = {bad};
  EXPECT_THROW(ScenarioGenerator(net, config), InvalidArgument);

  bad = make_fault_spec(FaultKind::kPumpOutage);
  bad.duration_min_slots = 0;
  config.faults = {bad};
  EXPECT_THROW(ScenarioGenerator(net, config), InvalidArgument);

  bad = make_fault_spec(FaultKind::kSensorBias);
  bad.targets_min = 0;
  config.faults = {bad};
  EXPECT_THROW(ScenarioGenerator(net, config), InvalidArgument);

  bad = make_fault_spec(FaultKind::kTankDrawdown);
  bad.magnitude_min = -0.5;
  config.faults = {bad};
  EXPECT_THROW(ScenarioGenerator(net, config), InvalidArgument);
}

}  // namespace
}  // namespace aqua::core
