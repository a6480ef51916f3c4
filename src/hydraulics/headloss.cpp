#include "hydraulics/headloss.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace aqua::hydraulics {
namespace {

constexpr double kHwExponent = 1.852;
// Flow magnitude below which the loss curve is linearized; EPANET uses a
// similar "RQtol" guard to keep gradients bounded near zero flow.
constexpr double kFlowEpsilon = 1e-6;
// Resistance assigned to closed links: high enough to make leak-through
// negligible, low enough to keep the matrix well-conditioned.
constexpr double kClosedResistance = 1e8;

double minor_loss_coefficient(double k, double diameter) {
  if (k <= 0.0 || diameter <= 0.0) return 0.0;
  // h_minor = K v^2 / 2g = m q^2 with m = 0.02517 K / d^4 (SI).
  return 0.02517 * k / std::pow(diameter, 4);
}

}  // namespace

double hazen_williams_resistance(double length_m, double diameter_m, double roughness_c) {
  AQUA_REQUIRE(length_m > 0.0 && diameter_m > 0.0 && roughness_c > 0.0,
               "hazen_williams_resistance: positive arguments required");
  return 10.667 * length_m / (std::pow(roughness_c, kHwExponent) * std::pow(diameter_m, 4.871));
}

LossCoefficients link_loss_coefficients(const Link& link) {
  LossCoefficients out;
  switch (link.type) {
    case LinkType::kPipe:
      out.resistance = hazen_williams_resistance(link.length, link.diameter, link.roughness);
      out.minor = minor_loss_coefficient(link.minor_loss, link.diameter);
      break;
    case LinkType::kPump:
      break;
    case LinkType::kValve:
      // Throttle valve: the setting acts as a minor-loss coefficient.
      out.minor = minor_loss_coefficient(std::max(link.valve_setting, 0.1), link.diameter);
      break;
  }
  return out;
}

LossGradient link_loss(const Link& link, const LossCoefficients& coefficients, double flow) {
  LossGradient out;
  if (link.status == LinkStatus::kClosed) {
    out.loss = kClosedResistance * flow;
    out.gradient = kClosedResistance;
    return out;
  }
  const double m = coefficients.minor;
  switch (link.type) {
    case LinkType::kPipe: {
      const double magnitude = std::abs(flow);
      const double r = coefficients.resistance;
      if (magnitude < kFlowEpsilon) {
        // Linearized segment through the origin with the gradient at
        // q = kFlowEpsilon: keeps dh/dq bounded and continuous.
        const double g = kHwExponent * r * std::pow(kFlowEpsilon, kHwExponent - 1.0) +
                         2.0 * m * kFlowEpsilon;
        out.gradient = std::max(g, 1e-8);
        out.loss = out.gradient * flow;
      } else {
        const double friction = r * std::pow(magnitude, kHwExponent - 1.0);
        out.loss = (friction + m * magnitude) * flow;
        out.gradient = kHwExponent * friction + 2.0 * m * magnitude;
      }
      return out;
    }
    case LinkType::kPump: {
      // Head *loss* through a pump is the negative of its head gain.
      // Reverse flow through a pump is blocked by a steep linear penalty.
      if (flow < 0.0) {
        constexpr double kReversePenalty = 1e6;
        out.loss = -link.pump.shutoff_head + kReversePenalty * flow;
        out.gradient = kReversePenalty;
        return out;
      }
      out.loss = -link.pump.head_gain(flow);
      out.gradient = link.pump.gradient(flow);
      return out;
    }
    case LinkType::kValve: {
      // Base loss of a short equivalent pipe plus the setting's minor loss.
      const double q = std::max(std::abs(flow), kFlowEpsilon);
      out.loss = m * q * flow;
      out.gradient = std::max(2.0 * m * q, 1e-6);
      return out;
    }
  }
  out.gradient = 1e-8;
  return out;
}

LossGradient link_loss(const Link& link, double flow) {
  return link_loss(link, link_loss_coefficients(link), flow);
}

EmitterFlow emitter_flow(double coefficient, double exponent, double pressure_head) {
  EmitterFlow out;
  if (coefficient <= 0.0) return out;
  // Below kSmooth the power law is replaced by a C^1 cubic ramp
  // E = a p^2 + b p^3 matching E(kSmooth) and E'(kSmooth) with E(0) =
  // E'(0) = 0. The wide, continuously differentiable transition prevents
  // the on/off limit cycle Newton otherwise falls into when a leak node's
  // pressure hovers near zero (a known EPANET emitter pathology).
  constexpr double kSmooth = 1.0;  // [m]
  if (pressure_head <= 0.0) {
    out.flow = 0.0;
    out.gradient = 0.0;
    return out;
  }
  if (pressure_head < kSmooth) {
    const double q0 = coefficient * std::pow(kSmooth, exponent);
    const double s0 = coefficient * exponent * std::pow(kSmooth, exponent - 1.0);
    const double a = (3.0 * q0 - s0 * kSmooth) / (kSmooth * kSmooth);
    const double b = (s0 * kSmooth - 2.0 * q0) / (kSmooth * kSmooth * kSmooth);
    out.flow = (a + b * pressure_head) * pressure_head * pressure_head;
    out.gradient = (2.0 * a + 3.0 * b * pressure_head) * pressure_head;
    return out;
  }
  out.flow = coefficient * std::pow(pressure_head, exponent);
  out.gradient = coefficient * exponent * std::pow(pressure_head, exponent - 1.0);
  return out;
}

}  // namespace aqua::hydraulics
