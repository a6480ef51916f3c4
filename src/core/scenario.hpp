// Failure-scenario generation (Sec. V-A): each scenario carries 1..m
// concurrent leak events with "arbitrary locations and sizes but same
// starting time", the number of events uniform in U(1, max). The
// cold-weather variant ("Pipe Failures due to Low Temperature") drives
// leak locations from the freeze process so weather information becomes an
// informative expert.
//
// On top of the paper's leak-only scenarios sits the scenario-diversity
// engine (DESIGN.md §15): a ScenarioConfig carries a list of FaultSpecs,
// each a distribution over one variant family — pump outages, valve
// closures, ramping-EC leaks, demand surges, tank-drawdown starts, and
// sensor faults (dropout / stuck-at / drift / adversarial bias). Every
// generated scenario samples each spec independently, so corpora mix
// healthy and degraded conditions at configurable rates.
//
// Determinism contract: the generator consumes a FIXED number of draws
// from its base stream per scenario (exactly the two draws of one
// Rng::split), no matter which variants fire or how many events they
// produce. Hence generate(100) is a prefix of generate(200) for the same
// seed, and adding or removing fault specs never perturbs the base leak
// fields of any scenario (tests/test_scenario_variants.cpp asserts both).
#pragma once

#include <cstdint>
#include <vector>

#include "core/label_space.hpp"
#include "fusion/weather.hpp"
#include "hydraulics/simulation.hpp"
#include "ml/dataset.hpp"
#include "sensing/sensors.hpp"

namespace aqua::core {

/// Variant families of the scenario-diversity engine. The first five
/// perturb hydraulics; the sensor kinds perturb the measurement channel
/// after noise, before Δ-feature extraction (sensing/sensors.hpp).
enum class FaultKind : std::uint8_t {
  kPumpOutage,     // pump links forced closed over a window
  kValveClosure,   // valve (or pipe gate) links forced closed over a window
  kLeakRamp,       // leak EC ramps linearly instead of appearing at full size
  kDemandSurge,    // junction demands multiplied over a window
  kTankDrawdown,   // tank initial levels scaled down at t = 0 (runs from step 0)
  kSensorDropout,  // sensor reading -> 0
  kSensorStuckAt,  // sensor reading -> constant
  kSensorDrift,    // sensor reading accumulates per-slot offset
  kSensorBias,     // sensor reading shifted by a constant (adversarial)
};

inline constexpr std::size_t kNumFaultKinds = 9;

const char* fault_kind_name(FaultKind kind);

/// Bit for FaultKind `kind` in LeakScenario::variant_mask.
inline constexpr std::uint32_t fault_bit(FaultKind kind) noexcept {
  return std::uint32_t{1} << static_cast<std::uint32_t>(kind);
}

/// Distribution over one variant family. Each generated scenario fires the
/// spec with `probability`; window positions are expressed in slots
/// RELATIVE to the scenario's leak slot (negative offsets start before the
/// leak, so the scenario cannot resume from the baseline at its leak slot
/// and runs from step 0 — see ScenarioDynamics::resumable_at). Fields that
/// a kind does not use are ignored; specs whose targets are absent from a
/// network (pumps on a pump-less system, tanks on a tank-less one) silently
/// never fire there, without affecting any other draw.
struct FaultSpec {
  FaultKind kind = FaultKind::kPumpOutage;
  double probability = 1.0;

  // Window start, in slots relative to the leak slot (clamped to >= 1).
  std::int64_t offset_min_slots = 0;
  std::int64_t offset_max_slots = 4;
  // Window length in slots (>= 1); ramp length for kLeakRamp.
  std::size_t duration_min_slots = 4;
  std::size_t duration_max_slots = 12;
  // Surge multiplier / drawdown scale / stuck-at value / drift-per-slot /
  // bias, in the variant's native unit.
  double magnitude_min = 0.0;
  double magnitude_max = 0.0;
  // How many targets to hit: pumps/valves to close, junctions to surge,
  // sensors to fault (capped at what the network offers).
  std::size_t targets_min = 1;
  std::size_t targets_max = 1;
};

/// Canonical spec for one family (the defaults the test suites and benches
/// use), firing with `probability`.
FaultSpec make_fault_spec(FaultKind kind, double probability = 1.0);

struct LeakScenario {
  std::vector<hydraulics::LeakEvent> events;  // all share the same start slot
  std::size_t leak_slot = 0;                  // e.t in IoT slots
  ml::Labels truth;                           // per-label leak indicator
  std::vector<std::uint8_t> frozen;           // per-label frozen indicator (may be all 0)
  double temperature_f = 55.0;

  // Variant layer (empty / 1.0 / 0 for the paper's baseline scenarios).
  std::vector<hydraulics::OperationalEvent> operations;
  std::vector<hydraulics::DemandEvent> demand_events;
  double tank_init_scale = 1.0;
  std::vector<sensing::SensorFaultDraw> sensor_faults;
  std::uint32_t variant_mask = 0;  // OR of fault_bit(kind) for fired variants

  /// The scenario's hydraulic dynamics, a view of its own fields (valid
  /// while the scenario lives unchanged). Sensor faults are not part of it:
  /// they act downstream of hydraulics.
  hydraulics::ScenarioDynamics dynamics() const noexcept {
    return {events, operations, demand_events, tank_init_scale};
  }
};

struct ScenarioConfig {
  std::size_t min_events = 1;
  std::size_t max_events = 5;     // U(min, max) events per scenario
  double ec_min = 0.0015;         // leak size (emitter coefficient) range
  double ec_max = 0.0090;
  std::size_t min_leak_slot = 4;  // e.t randomized across the day
  std::size_t max_leak_slot = 40;
  /// Seconds per IoT slot. Must equal the hydraulic step the scenarios are
  /// later simulated with (SimulationOptions::hydraulic_step_s), so that
  /// LeakEvent::start_time_s and the batch's snapshot indices agree;
  /// SnapshotBatch enforces the consistency.
  double hydraulic_step_s = 900.0;
  bool cold_weather = false;      // freeze-driven multi-failure
  fusion::FreezeModel freeze;
  double cold_temperature_f = 12.0;  // ambient during cold scenarios
  double warm_temperature_f = 55.0;
  /// Variant layer: each spec is sampled independently per scenario.
  /// Empty (the default) reproduces the paper's leak-only corpora exactly.
  std::vector<FaultSpec> faults;
  std::uint64_t seed = 1234;
};

class ScenarioGenerator {
 public:
  ScenarioGenerator(const hydraulics::Network& network, ScenarioConfig config);

  /// One scenario; deterministic given the generator state, and a fixed
  /// draw count on the base stream per call (see file comment).
  LeakScenario next();

  /// A batch of scenarios. generate(n) is a prefix of generate(m >= n)
  /// for equal seeds.
  std::vector<LeakScenario> generate(std::size_t count);

  const ScenarioConfig& config() const noexcept { return config_; }
  const LabelSpace& labels() const noexcept { return labels_; }

 private:
  void apply_fault(const FaultSpec& spec, Rng& rng, LeakScenario& scenario) const;

  const hydraulics::Network& network_;
  ScenarioConfig config_;
  LabelSpace labels_;
  Rng rng_;
  double slot_seconds_;
  // Cached per-network target pools for the variant layer.
  std::vector<hydraulics::LinkId> pump_links_;
  std::vector<hydraulics::LinkId> valve_links_;
  std::vector<hydraulics::NodeId> surge_nodes_;  // junctions with base demand
  bool has_tank_ = false;
};

}  // namespace aqua::core
