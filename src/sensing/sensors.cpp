#include "sensing/sensors.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "io/binary.hpp"

namespace aqua::sensing {

std::size_t SensorSet::count(SensorKind kind) const noexcept {
  return static_cast<std::size_t>(std::count_if(
      sensors.begin(), sensors.end(), [kind](const Sensor& s) { return s.kind == kind; }));
}

void SensorSet::save(io::BinaryWriter& writer) const {
  writer.write_u64(sensors.size());
  for (const Sensor& sensor : sensors) {
    writer.write_u8(static_cast<std::uint8_t>(sensor.kind));
    writer.write_u64(sensor.index);
    writer.write_string(sensor.name);
  }
}

SensorSet SensorSet::load(io::BinaryReader& reader) {
  const std::uint64_t count = reader.read_u64();
  if (count > (std::uint64_t{1} << 24)) {
    throw io::SerializationError("malformed sensor set: sensor count");
  }
  SensorSet set;
  set.sensors.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Sensor sensor;
    const std::uint8_t kind = reader.read_u8();
    if (kind > static_cast<std::uint8_t>(SensorKind::kFlow)) {
      throw io::SerializationError("malformed sensor kind tag");
    }
    sensor.kind = static_cast<SensorKind>(kind);
    sensor.index = reader.read_u64();
    sensor.name = reader.read_string();
    set.sensors.push_back(std::move(sensor));
  }
  return set;
}

void NoiseModel::save(io::BinaryWriter& writer) const {
  writer.write_f64(pressure_sigma_m);
  writer.write_f64(flow_sigma_frac);
  writer.write_f64(flow_sigma_floor_m3s);
}

NoiseModel NoiseModel::load(io::BinaryReader& reader) {
  NoiseModel noise;
  noise.pressure_sigma_m = reader.read_f64();
  noise.flow_sigma_frac = reader.read_f64();
  noise.flow_sigma_floor_m3s = reader.read_f64();
  return noise;
}

const char* sensor_fault_kind_name(SensorFaultKind kind) {
  switch (kind) {
    case SensorFaultKind::kDropout:
      return "dropout";
    case SensorFaultKind::kStuckAt:
      return "stuck_at";
    case SensorFaultKind::kDrift:
      return "drift";
    case SensorFaultKind::kBias:
      return "bias";
  }
  return "unknown";
}

std::vector<SensorFault> resolve_sensor_faults(std::span<const SensorFaultDraw> draws,
                                               std::size_t sensor_count) {
  AQUA_REQUIRE(sensor_count > 0 || draws.empty(),
               "cannot resolve sensor faults against an empty deployment");
  std::vector<SensorFault> faults;
  faults.reserve(draws.size());
  for (const SensorFaultDraw& draw : draws) {
    AQUA_REQUIRE(draw.position >= 0.0 && draw.position < 1.0,
                 "sensor-fault position must lie in [0, 1)");
    SensorFault fault;
    fault.kind = draw.kind;
    fault.sensor = static_cast<std::size_t>(draw.position * static_cast<double>(sensor_count));
    fault.sensor = std::min(fault.sensor, sensor_count - 1);
    fault.value = draw.value;
    fault.start_slot = draw.start_slot;
    faults.push_back(fault);
  }
  return faults;
}

double apply_sensor_fault(const SensorFault& fault, double reading, std::size_t slot) {
  if (slot < fault.start_slot) return reading;
  switch (fault.kind) {
    case SensorFaultKind::kDropout:
      return 0.0;
    case SensorFaultKind::kStuckAt:
      return fault.value;
    case SensorFaultKind::kDrift:
      return reading + fault.value * static_cast<double>(slot - fault.start_slot);
    case SensorFaultKind::kBias:
      return reading + fault.value;
  }
  return reading;
}

Sensor make_sensor(const hydraulics::Network& network, SensorKind kind, std::size_t index) {
  if (kind == SensorKind::kPressure) return {kind, index, "p:" + network.node(index).name};
  return {kind, index, "q:" + network.link(index).name};
}

void check_sensor_names(const hydraulics::Network& network, const SensorSet& sensors) {
  for (const Sensor& sensor : sensors.sensors) {
    const bool pressure = sensor.kind == SensorKind::kPressure;
    if (sensor.index >= (pressure ? network.num_nodes() : network.num_links())) continue;
    const Sensor element = make_sensor(network, sensor.kind, sensor.index);
    if (sensor.name != element.name) {
      throw InvalidArgument("sensor '" + sensor.name + "' indexes " + (pressure ? "node " : "link ") +
                            std::to_string(sensor.index) + ", which this network names '" +
                            element.name + "'");
    }
  }
}

SensorSet full_observation(const hydraulics::Network& network) {
  SensorSet set;
  set.sensors.reserve(network.num_nodes() + network.num_links());
  for (std::size_t v = 0; v < network.num_nodes(); ++v) {
    set.sensors.push_back(make_sensor(network, SensorKind::kPressure, v));
  }
  for (std::size_t l = 0; l < network.num_links(); ++l) {
    set.sensors.push_back(make_sensor(network, SensorKind::kFlow, l));
  }
  return set;
}

}  // namespace aqua::sensing
