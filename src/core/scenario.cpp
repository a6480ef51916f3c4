#include "core/scenario.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace aqua::core {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPumpOutage:
      return "pump_outage";
    case FaultKind::kValveClosure:
      return "valve_closure";
    case FaultKind::kLeakRamp:
      return "leak_ramp";
    case FaultKind::kDemandSurge:
      return "demand_surge";
    case FaultKind::kTankDrawdown:
      return "tank_drawdown";
    case FaultKind::kSensorDropout:
      return "sensor_dropout";
    case FaultKind::kSensorStuckAt:
      return "sensor_stuck_at";
    case FaultKind::kSensorDrift:
      return "sensor_drift";
    case FaultKind::kSensorBias:
      return "sensor_bias";
  }
  return "unknown";
}

FaultSpec make_fault_spec(FaultKind kind, double probability) {
  FaultSpec spec;
  spec.kind = kind;
  spec.probability = probability;
  switch (kind) {
    case FaultKind::kPumpOutage:
    case FaultKind::kValveClosure:
      // Closure window opening shortly after (or with) the leak, long
      // enough to span the usual elapsed-slot snapshots.
      spec.offset_min_slots = 0;
      spec.offset_max_slots = 2;
      spec.duration_min_slots = 4;
      spec.duration_max_slots = 12;
      break;
    case FaultKind::kLeakRamp:
      // Ramp length in slots: a pinhole growing over 30 min .. 2 h.
      spec.duration_min_slots = 2;
      spec.duration_max_slots = 8;
      break;
    case FaultKind::kDemandSurge:
      spec.offset_min_slots = 0;
      spec.offset_max_slots = 2;
      spec.duration_min_slots = 2;
      spec.duration_max_slots = 8;
      spec.magnitude_min = 2.0;  // x2 .. x6 the patterned demand
      spec.magnitude_max = 6.0;
      spec.targets_min = 1;
      spec.targets_max = 3;
      break;
    case FaultKind::kTankDrawdown:
      spec.magnitude_min = 0.25;  // start the day with 25% .. 60% of level
      spec.magnitude_max = 0.60;
      break;
    case FaultKind::kSensorDropout:
      spec.offset_min_slots = 0;
      spec.offset_max_slots = 2;
      spec.targets_min = 1;
      spec.targets_max = 2;
      break;
    case FaultKind::kSensorStuckAt:
      spec.offset_min_slots = 0;
      spec.offset_max_slots = 2;
      spec.magnitude_min = 0.0;  // frozen electronics report a plausible value
      spec.magnitude_max = 5.0;
      spec.targets_min = 1;
      spec.targets_max = 2;
      break;
    case FaultKind::kSensorDrift:
      spec.offset_min_slots = -4;  // calibration already walking pre-leak
      spec.offset_max_slots = 0;
      spec.magnitude_min = 0.01;  // per-slot walk, sensor-native units
      spec.magnitude_max = 0.05;
      spec.targets_min = 1;
      spec.targets_max = 2;
      break;
    case FaultKind::kSensorBias:
      spec.offset_min_slots = 0;
      spec.offset_max_slots = 0;
      spec.magnitude_min = -2.0;  // adversarial shift either direction
      spec.magnitude_max = 2.0;
      spec.targets_min = 1;
      spec.targets_max = 2;
      break;
  }
  return spec;
}

ScenarioGenerator::ScenarioGenerator(const hydraulics::Network& network, ScenarioConfig config)
    : network_(network),
      config_(std::move(config)),
      labels_(network),
      rng_(config_.seed),
      slot_seconds_(config_.hydraulic_step_s) {
  AQUA_REQUIRE(config_.hydraulic_step_s > 0.0, "slot length must be positive");
  AQUA_REQUIRE(config_.min_events >= 1, "scenarios need at least one event");
  AQUA_REQUIRE(config_.max_events >= config_.min_events, "max events below min");
  AQUA_REQUIRE(config_.max_events <= labels_.num_labels(),
               "more concurrent events than junctions");
  AQUA_REQUIRE(config_.ec_min > 0.0 && config_.ec_max >= config_.ec_min, "bad EC range");
  AQUA_REQUIRE(config_.min_leak_slot >= 1, "leak slot must have a predecessor");
  AQUA_REQUIRE(config_.max_leak_slot >= config_.min_leak_slot, "bad leak-slot range");
  for (const FaultSpec& spec : config_.faults) {
    AQUA_REQUIRE(spec.probability >= 0.0 && spec.probability <= 1.0,
                 "fault probability must lie in [0, 1]");
    AQUA_REQUIRE(spec.offset_max_slots >= spec.offset_min_slots, "bad fault offset range");
    AQUA_REQUIRE(spec.duration_min_slots >= 1, "fault windows need at least one slot");
    AQUA_REQUIRE(spec.duration_max_slots >= spec.duration_min_slots,
                 "bad fault duration range");
    AQUA_REQUIRE(spec.magnitude_max >= spec.magnitude_min, "bad fault magnitude range");
    AQUA_REQUIRE(spec.targets_min >= 1 && spec.targets_max >= spec.targets_min,
                 "bad fault target range");
    if (spec.kind == FaultKind::kTankDrawdown) {
      AQUA_REQUIRE(spec.magnitude_min > 0.0, "drawdown scale must be positive");
    }
    if (spec.kind == FaultKind::kDemandSurge) {
      AQUA_REQUIRE(spec.magnitude_min > 0.0, "surge multiplier must be positive");
    }
  }

  for (hydraulics::LinkId l = 0; l < network_.num_links(); ++l) {
    switch (network_.link(l).type) {
      case hydraulics::LinkType::kPump:
        pump_links_.push_back(l);
        break;
      case hydraulics::LinkType::kValve:
        valve_links_.push_back(l);
        break;
      case hydraulics::LinkType::kPipe:
        break;
    }
  }
  for (hydraulics::NodeId v = 0; v < network_.num_nodes(); ++v) {
    const auto& node = network_.node(v);
    if (node.type == hydraulics::NodeType::kJunction && node.base_demand > 0.0) {
      surge_nodes_.push_back(v);
    }
    if (node.type == hydraulics::NodeType::kTank) has_tank_ = true;
  }
}

namespace {

/// Window draw shared by the timed variants: [start, end) in absolute
/// seconds, offset relative to the leak slot and clamped so the window
/// starts at slot >= 1.
std::pair<double, double> draw_window(const FaultSpec& spec, std::size_t leak_slot,
                                      double slot_seconds, Rng& rng) {
  const std::int64_t offset = rng.uniform_int(spec.offset_min_slots, spec.offset_max_slots);
  const auto duration = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(spec.duration_min_slots),
                      static_cast<std::int64_t>(spec.duration_max_slots)));
  std::int64_t start_slot = static_cast<std::int64_t>(leak_slot) + offset;
  start_slot = std::max<std::int64_t>(start_slot, 1);
  const double start = static_cast<double>(start_slot) * slot_seconds;
  const double end = static_cast<double>(start_slot + static_cast<std::int64_t>(duration)) *
                     slot_seconds;
  return {start, end};
}

std::size_t draw_targets(const FaultSpec& spec, std::size_t pool, Rng& rng) {
  const auto want = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(spec.targets_min),
                      static_cast<std::int64_t>(spec.targets_max)));
  return std::min(want, pool);
}

}  // namespace

void ScenarioGenerator::apply_fault(const FaultSpec& spec, Rng& rng,
                                    LeakScenario& scenario) const {
  if (!rng.bernoulli(spec.probability)) return;
  switch (spec.kind) {
    case FaultKind::kPumpOutage:
    case FaultKind::kValveClosure: {
      const auto& pool =
          spec.kind == FaultKind::kPumpOutage ? pump_links_ : valve_links_;
      if (pool.empty()) return;
      const std::size_t count = draw_targets(spec, pool.size(), rng);
      const auto picks = rng.sample_without_replacement(pool.size(), count);
      const auto [start, end] = draw_window(spec, scenario.leak_slot, slot_seconds_, rng);
      for (std::size_t p : picks) {
        scenario.operations.push_back({pool[p], start, end});
      }
      scenario.variant_mask |= fault_bit(spec.kind);
      return;
    }
    case FaultKind::kLeakRamp: {
      const auto ramp_slots = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(spec.duration_min_slots),
                          static_cast<std::int64_t>(spec.duration_max_slots)));
      for (auto& event : scenario.events) {
        event.ramp_s = static_cast<double>(ramp_slots) * slot_seconds_;
      }
      scenario.variant_mask |= fault_bit(spec.kind);
      return;
    }
    case FaultKind::kDemandSurge: {
      if (surge_nodes_.empty()) return;
      const std::size_t count = draw_targets(spec, surge_nodes_.size(), rng);
      const auto picks = rng.sample_without_replacement(surge_nodes_.size(), count);
      const auto [start, end] = draw_window(spec, scenario.leak_slot, slot_seconds_, rng);
      for (std::size_t p : picks) {
        const double multiplier = rng.uniform(spec.magnitude_min, spec.magnitude_max);
        scenario.demand_events.push_back({surge_nodes_[p], multiplier, start, end});
      }
      scenario.variant_mask |= fault_bit(spec.kind);
      return;
    }
    case FaultKind::kTankDrawdown: {
      if (!has_tank_) return;
      scenario.tank_init_scale = rng.uniform(spec.magnitude_min, spec.magnitude_max);
      scenario.variant_mask |= fault_bit(spec.kind);
      return;
    }
    case FaultKind::kSensorDropout:
    case FaultKind::kSensorStuckAt:
    case FaultKind::kSensorDrift:
    case FaultKind::kSensorBias: {
      // Sensors are placed after generation, so faults are drawn as
      // positions in [0, 1) and resolved against the eventual deployment
      // (sensing::resolve_sensor_faults).
      const std::size_t count = draw_targets(spec, spec.targets_max, rng);
      const std::int64_t offset =
          rng.uniform_int(spec.offset_min_slots, spec.offset_max_slots);
      const std::int64_t start_slot =
          std::max<std::int64_t>(static_cast<std::int64_t>(scenario.leak_slot) + offset, 0);
      for (std::size_t i = 0; i < count; ++i) {
        sensing::SensorFaultDraw draw;
        switch (spec.kind) {
          case FaultKind::kSensorDropout:
            draw.kind = sensing::SensorFaultKind::kDropout;
            break;
          case FaultKind::kSensorStuckAt:
            draw.kind = sensing::SensorFaultKind::kStuckAt;
            break;
          case FaultKind::kSensorDrift:
            draw.kind = sensing::SensorFaultKind::kDrift;
            break;
          default:
            draw.kind = sensing::SensorFaultKind::kBias;
            break;
        }
        draw.position = rng.uniform(0.0, 1.0);
        draw.value = rng.uniform(spec.magnitude_min, spec.magnitude_max);
        draw.start_slot = static_cast<std::size_t>(start_slot);
        scenario.sensor_faults.push_back(draw);
      }
      scenario.variant_mask |= fault_bit(spec.kind);
      return;
    }
  }
}

LeakScenario ScenarioGenerator::next() {
  // Fixed base-stream cost: exactly the two draws of this split, no matter
  // how many variants fire below. Prefix stability and spec-injection
  // stability both hang off this line.
  Rng scenario_rng = rng_.split();

  LeakScenario scenario;
  const std::size_t num_labels = labels_.num_labels();
  scenario.truth.assign(num_labels, 0);
  scenario.frozen.assign(num_labels, 0);

  const auto count = static_cast<std::size_t>(
      scenario_rng.uniform_int(static_cast<std::int64_t>(config_.min_events),
                               static_cast<std::int64_t>(config_.max_events)));
  scenario.leak_slot = static_cast<std::size_t>(
      scenario_rng.uniform_int(static_cast<std::int64_t>(config_.min_leak_slot),
                               static_cast<std::int64_t>(config_.max_leak_slot)));

  std::vector<std::size_t> leak_labels;
  if (config_.cold_weather) {
    scenario.temperature_f = config_.cold_temperature_f;
    // Freeze process first; leaks occur among frozen joints (ice blockage
    // then burst). Guarantee feasibility by freezing the chosen leak
    // locations when the freeze draw leaves too few.
    for (std::size_t v = 0; v < num_labels; ++v) {
      scenario.frozen[v] = scenario_rng.bernoulli(config_.freeze.p_freeze) ? 1 : 0;
    }
    std::vector<std::size_t> frozen_labels;
    for (std::size_t v = 0; v < num_labels; ++v) {
      if (scenario.frozen[v] != 0) frozen_labels.push_back(v);
    }
    if (frozen_labels.size() >= count) {
      const auto picks = scenario_rng.sample_without_replacement(frozen_labels.size(), count);
      for (std::size_t p : picks) leak_labels.push_back(frozen_labels[p]);
    } else {
      const auto picks = scenario_rng.sample_without_replacement(num_labels, count);
      leak_labels.assign(picks.begin(), picks.end());
      for (std::size_t v : leak_labels) scenario.frozen[v] = 1;
    }
  } else {
    scenario.temperature_f = config_.warm_temperature_f;
    const auto picks = scenario_rng.sample_without_replacement(num_labels, count);
    leak_labels.assign(picks.begin(), picks.end());
  }

  const double start_time = static_cast<double>(scenario.leak_slot) * slot_seconds_;
  for (std::size_t label : leak_labels) {
    hydraulics::LeakEvent event;
    event.node = labels_.node_of(label);
    event.coefficient = scenario_rng.uniform(config_.ec_min, config_.ec_max);
    event.exponent = 0.5;
    event.start_time_s = start_time;
    scenario.events.push_back(event);
    scenario.truth[label] = 1;
  }

  // Variant layer: each spec draws from its own split, so (a) the base
  // leak fields above never move when specs are added or removed, and (b)
  // one spec's draw count never shifts another's stream.
  Rng faults_rng = scenario_rng.split();
  for (const FaultSpec& spec : config_.faults) {
    Rng spec_rng = faults_rng.split();
    apply_fault(spec, spec_rng, scenario);
  }
  return scenario;
}

std::vector<LeakScenario> ScenarioGenerator::generate(std::size_t count) {
  std::vector<LeakScenario> scenarios;
  scenarios.reserve(count);
  for (std::size_t i = 0; i < count; ++i) scenarios.push_back(next());
  return scenarios;
}

}  // namespace aqua::core
