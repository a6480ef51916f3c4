// Link head loss with Hazen-Williams pipe friction, EPANET's default and
// the paper's model, exposed as (loss, gradient) pairs evaluated at a
// signed flow, which is exactly what the Global Gradient Algorithm
// consumes each Newton iteration.
#pragma once

#include "hydraulics/network.hpp"

namespace aqua::hydraulics {

/// Head loss h(q) [m] and gradient dh/dq [s/m^2] of a link at signed flow
/// q [m^3/s]. h is odd in q; gradient is strictly positive (floored away
/// from zero so the GGA matrix stays SPD near q = 0).
struct LossGradient {
  double loss = 0.0;
  double gradient = 0.0;
};

/// Hazen-Williams resistance coefficient r such that h = r * q^1.852
/// (SI units; r = 10.667 L / (C^1.852 d^4.871)).
double hazen_williams_resistance(double length_m, double diameter_m, double roughness_c);

/// The flow-independent part of a link's head-loss curve, computed once
/// per link: the Hazen-Williams resistance r of a pipe and the minor-loss
/// coefficient m of a pipe or valve (h_minor = m q^2). Pumps have none.
/// Independent of link status, which link_loss reads on every call, so a
/// status toggle needs no recomputation.
struct LossCoefficients {
  double resistance = 0.0;
  double minor = 0.0;
};
LossCoefficients link_loss_coefficients(const Link& link);

/// Evaluates loss and gradient for any link type at signed flow q, given
/// the link's coefficients from link_loss_coefficients(link):
///  - open pipe:   h = (r + m) |q|^(n-1) q with n = 1.852 (HW)
///  - pump:        h = -(h0 - r q^w), restricted to forward flow
///  - valve:       minor-loss element from setting; closed = huge resistance
///  - closed link: linear with a very large resistance (keeps the system
///    nonsingular without re-assembling the sparsity pattern)
LossGradient link_loss(const Link& link, const LossCoefficients& coefficients, double flow);

/// link_loss with the coefficients computed on the spot; bit-identical to
/// the split form.
LossGradient link_loss(const Link& link, double flow);

/// Emitter (leak) outflow Q = EC * max(p, 0)^beta and its gradient w.r.t.
/// head. A quadratic smoothing below `p_smooth` keeps the Jacobian
/// continuous as pressure crosses zero.
struct EmitterFlow {
  double flow = 0.0;      // [m^3/s]
  double gradient = 0.0;  // d(flow)/d(head) [m^2/s]
};
EmitterFlow emitter_flow(double coefficient, double exponent, double pressure_head);

}  // namespace aqua::hydraulics
