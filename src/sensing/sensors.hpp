// IoT sensor modeling (Sec. III-B). A sensor set A ⊆ V ∪ E mixes pressure
// transducers (on nodes) and flow meters (on links). Readings are sampled
// from EPS results at 15-minute slots with Gaussian measurement noise, and
// the ML features are *differences between consecutive readings*: "we use
// the difference between two sets of consecutive readings from IoT devices
// as the features of X ... the change on pressure head or flow rate of
// sensor a" (Sec. IV-A), taken between slots e.t-1 and e.t+n. The one
// featurizer is core::SnapshotBatch::features_into; NoiseModel::sigma is
// the one noise rule it and the greedy placement share.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hydraulics/network.hpp"

namespace aqua::io {
class BinaryWriter;
class BinaryReader;
}  // namespace aqua::io

namespace aqua::sensing {

enum class SensorKind { kPressure, kFlow };

struct Sensor {
  SensorKind kind = SensorKind::kPressure;
  std::size_t index = 0;  // node id (pressure) or link id (flow)
  std::string name;
};

/// An ordered sensor deployment; feature vectors follow this order.
struct SensorSet {
  std::vector<Sensor> sensors;

  std::size_t size() const noexcept { return sensors.size(); }
  std::size_t count(SensorKind kind) const noexcept;

  void save(io::BinaryWriter& writer) const;
  static SensorSet load(io::BinaryReader& reader);
};

/// Measurement noise: additive Gaussian on pressure [m]; on flow the noise
/// is relative with an absolute floor (meters are spec'd in % of reading).
struct NoiseModel {
  double pressure_sigma_m = 0.005;
  double flow_sigma_frac = 0.005;
  double flow_sigma_floor_m3s = 5e-5;

  /// Standard deviation of the Gaussian noise on one clean `reading` of a
  /// sensor of `kind`: pressure_sigma_m for pressure, and
  /// max(flow_sigma_frac · |reading|, flow_sigma_floor_m3s) for flow.
  double sigma(SensorKind kind, double reading) const noexcept {
    if (kind == SensorKind::kPressure) return pressure_sigma_m;
    return std::max(flow_sigma_frac * std::abs(reading), flow_sigma_floor_m3s);
  }

  void save(io::BinaryWriter& writer) const;
  static NoiseModel load(io::BinaryReader& reader);
};

// --- Sensor-fault layer (scenario-diversity engine, DESIGN.md §15) -------
//
// Faults model the sensing channel failing *after* physics and measurement
// noise: they transform the noisy reading a healthy sensor would have
// produced, immediately before Δ-feature extraction. Phase II inference can
// therefore be stress-tested against degraded telemetry without touching
// hydraulics, and a faulted corpus shares its simulation (and replay
// checkpoints) with the healthy one bit for bit.

enum class SensorFaultKind : std::uint8_t {
  kDropout,  // channel goes dark: reading -> 0
  kStuckAt,  // electronics freeze: reading -> value
  kDrift,    // calibration walks:  reading -> reading + value * slots-since-onset
  kBias,     // adversarial offset: reading -> reading + value
};

/// One faulted channel of a concrete deployment. `sensor` indexes the
/// SensorSet order; the fault is active for slots >= start_slot and `value`
/// is in the sensor's native unit (m for pressure, m^3/s for flow; per slot
/// for kDrift, ignored by kDropout).
struct SensorFault {
  SensorFaultKind kind = SensorFaultKind::kDropout;
  std::size_t sensor = 0;
  double value = 0.0;
  std::size_t start_slot = 0;
};

/// A fault drawn before any concrete deployment exists (scenario
/// generation happens ahead of sensor placement): `position` in [0, 1)
/// resolves to sensor index floor(position * size) for whatever sensor set
/// the corpus is later featurized with.
struct SensorFaultDraw {
  SensorFaultKind kind = SensorFaultKind::kDropout;
  double position = 0.0;
  double value = 0.0;
  std::size_t start_slot = 0;
};

/// Maps position-based draws onto a deployment of `sensor_count` sensors.
/// Deterministic; several draws may land on one sensor, in which case they
/// apply in list order.
std::vector<SensorFault> resolve_sensor_faults(std::span<const SensorFaultDraw> draws,
                                               std::size_t sensor_count);

/// The documented reading transform of one fault at one slot (identity
/// while slot < start_slot):
///   dropout:  r -> 0
///   stuck-at: r -> value
///   drift:    r -> r + value * (slot - start_slot)
///   bias:     r -> r + value
double apply_sensor_fault(const SensorFault& fault, double reading, std::size_t slot);

/// The sensor of `kind` on element `index` of `network` (a node for
/// pressure, a link for flow), named "p:<node>" or "q:<link>". Every
/// placement names its sensors this way.
Sensor make_sensor(const hydraulics::Network& network, SensorKind kind, std::size_t index);

/// Throws InvalidArgument, naming both, when a sensor that indexes an
/// element of `network` does not carry that element's make_sensor name:
/// the set was placed on another network. An index past the network is
/// SnapshotBatch::features_into's to reject.
void check_sensor_names(const hydraulics::Network& network, const SensorSet& sensors);

/// Full observation A = V ∪ E: a pressure sensor at every node and a flow
/// meter on every link ("|A| = |V| + |E| refers to the full (100%) IoT
/// observations", Sec. V-B).
SensorSet full_observation(const hydraulics::Network& network);

}  // namespace aqua::sensing
