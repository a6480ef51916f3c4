#include "hydraulics/headloss.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace aqua::hydraulics {
namespace {

Link make_pipe(double length = 100.0, double diameter = 0.3, double roughness = 120.0) {
  Link l;
  l.type = LinkType::kPipe;
  l.length = length;
  l.diameter = diameter;
  l.roughness = roughness;
  return l;
}

TEST(HazenWilliams, ResistanceFormula) {
  const double r = hazen_williams_resistance(100.0, 0.3, 120.0);
  const double expected = 10.667 * 100.0 / (std::pow(120.0, 1.852) * std::pow(0.3, 4.871));
  EXPECT_NEAR(r, expected, 1e-9);
}

TEST(HazenWilliams, ResistanceScalesWithLength) {
  EXPECT_NEAR(hazen_williams_resistance(200.0, 0.3, 120.0),
              2.0 * hazen_williams_resistance(100.0, 0.3, 120.0), 1e-9);
}

TEST(HazenWilliams, BiggerPipeLessResistance) {
  EXPECT_LT(hazen_williams_resistance(100.0, 0.5, 120.0),
            hazen_williams_resistance(100.0, 0.3, 120.0));
}

TEST(HazenWilliams, RejectsNonPositive) {
  EXPECT_THROW(hazen_williams_resistance(0.0, 0.3, 120.0), InvalidArgument);
  EXPECT_THROW(hazen_williams_resistance(100.0, -0.3, 120.0), InvalidArgument);
}

TEST(LinkLoss, PipeLossIsOddInFlow) {
  const Link pipe = make_pipe();
  const auto fwd = link_loss(pipe, 0.05);
  const auto bwd = link_loss(pipe, -0.05);
  EXPECT_NEAR(fwd.loss, -bwd.loss, 1e-12);
  EXPECT_NEAR(fwd.gradient, bwd.gradient, 1e-12);
}

TEST(LinkLoss, PipeLossMatchesPowerLaw) {
  const Link pipe = make_pipe();
  const double r = hazen_williams_resistance(pipe.length, pipe.diameter, pipe.roughness);
  const auto lg = link_loss(pipe, 0.05);
  EXPECT_NEAR(lg.loss, r * std::pow(0.05, 1.852), 1e-9);
  EXPECT_NEAR(lg.gradient, 1.852 * r * std::pow(0.05, 0.852), 1e-9);
}

TEST(LinkLoss, GradientAlwaysPositive) {
  const Link pipe = make_pipe();
  for (double q : {-0.5, -0.01, -1e-9, 0.0, 1e-9, 0.01, 0.5}) {
    EXPECT_GT(link_loss(pipe, q).gradient, 0.0) << "q=" << q;
  }
}

TEST(LinkLoss, LossMonotoneInFlow) {
  const Link pipe = make_pipe();
  double previous = link_loss(pipe, 0.0).loss;
  for (double q = 0.001; q < 0.2; q += 0.005) {
    const double loss = link_loss(pipe, q).loss;
    EXPECT_GT(loss, previous);
    previous = loss;
  }
}

TEST(LinkLoss, ClosedLinkActsAsHugeResistance) {
  Link pipe = make_pipe();
  pipe.status = LinkStatus::kClosed;
  const auto lg = link_loss(pipe, 0.01);
  EXPECT_GT(lg.gradient, 1e7);
  EXPECT_NEAR(lg.loss, lg.gradient * 0.01, 1e-6);
}

TEST(LinkLoss, MinorLossAddsQuadraticTerm) {
  Link plain = make_pipe();
  Link lossy = make_pipe();
  lossy.minor_loss = 10.0;
  const double q = 0.05;
  EXPECT_GT(link_loss(lossy, q).loss,
            link_loss(plain, q).loss);
}

TEST(PumpCurve, HeadGainDecreasesWithFlow) {
  const PumpCurve curve{50.0, 1000.0, 2.0};
  EXPECT_DOUBLE_EQ(curve.head_gain(0.0), 50.0);
  EXPECT_NEAR(curve.head_gain(0.1), 50.0 - 10.0, 1e-12);
  EXPECT_GT(curve.gradient(0.1), 0.0);
}

TEST(PumpLoss, ForwardFlowGivesNegativeLoss) {
  Link pump;
  pump.type = LinkType::kPump;
  pump.pump = {50.0, 1000.0, 2.0};
  const auto lg = link_loss(pump, 0.1);
  EXPECT_NEAR(lg.loss, -(50.0 - 10.0), 1e-12);  // head gain of 40 m
}

TEST(PumpLoss, ReverseFlowHeavilyPenalized) {
  Link pump;
  pump.type = LinkType::kPump;
  pump.pump = {50.0, 1000.0, 2.0};
  const auto lg = link_loss(pump, -0.01);
  EXPECT_GT(lg.gradient, 1e5);
}

TEST(ValveLoss, SettingThrottles) {
  Link valve;
  valve.type = LinkType::kValve;
  valve.diameter = 0.3;
  valve.valve_setting = 1.0;
  const auto open = link_loss(valve, 0.05);
  valve.valve_setting = 20.0;
  const auto throttled = link_loss(valve, 0.05);
  EXPECT_GT(throttled.loss, open.loss);
}

// --- Coefficient split ---------------------------------------------------

/// Exact bit equality (== would conflate -0.0 with 0.0 and miss NaN).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b;
}

/// Coefficients computed once and reused at every flow give exactly the
/// bits of the composed link_loss, which computes them per call — the
/// contract that lets GgaSolver hoist them out of its Newton loop.
void expect_split_matches_composed(const Link& link, const std::vector<double>& flows) {
  const LossCoefficients coefficients = link_loss_coefficients(link);
  for (const double q : flows) {
    const LossGradient split = link_loss(link, coefficients, q);
    const LossGradient composed = link_loss(link, q);
    EXPECT_TRUE(bits_equal(split.loss, composed.loss)) << "loss at q=" << q;
    EXPECT_TRUE(bits_equal(split.gradient, composed.gradient)) << "gradient at q=" << q;
  }
}

// Flows on both sides of zero, including the |q| < 1e-6 linearized branch.
const std::vector<double> kFlows = {-0.2, -0.05, -5e-7, 0.0, 3e-7, 0.05, 0.2};

TEST(LossCoefficients, HazenWilliamsPipeSplitIsBitExact) {
  Link pipe = make_pipe();
  expect_split_matches_composed(pipe, kFlows);
  pipe.minor_loss = 10.0;
  expect_split_matches_composed(pipe, kFlows);
}

TEST(LossCoefficients, ValveSplitIsBitExact) {
  Link valve;
  valve.type = LinkType::kValve;
  valve.diameter = 0.3;
  for (const double setting : {0.0, 5.0}) {  // 0 exercises the 0.1 floor
    valve.valve_setting = setting;
    expect_split_matches_composed(valve, kFlows);
  }
}

TEST(LossCoefficients, PumpSplitIsBitExactForwardAndReverse) {
  Link pump;
  pump.type = LinkType::kPump;
  pump.pump = {50.0, 1000.0, 2.0};
  expect_split_matches_composed(pump, {-0.01, 0.0, 0.05, 0.1});
}

TEST(LossCoefficients, ClosedLinkSplitIsBitExact) {
  Link pipe = make_pipe();
  pipe.minor_loss = 10.0;
  pipe.status = LinkStatus::kClosed;
  expect_split_matches_composed(pipe, {-0.01, 0.0, 0.01});
}

TEST(LossCoefficients, AreTheFlowIndependentConstantsAndIgnoreStatus) {
  Link pipe = make_pipe();
  pipe.minor_loss = 10.0;
  const LossCoefficients hw = link_loss_coefficients(pipe);
  EXPECT_TRUE(bits_equal(hw.resistance, hazen_williams_resistance(100.0, 0.3, 120.0)));
  EXPECT_DOUBLE_EQ(hw.minor, 0.02517 * 10.0 / std::pow(0.3, 4));
  // Status is read per evaluation, so toggling it needs no recomputation.
  pipe.status = LinkStatus::kClosed;
  const LossCoefficients closed = link_loss_coefficients(pipe);
  EXPECT_TRUE(bits_equal(closed.resistance, hw.resistance));
  EXPECT_TRUE(bits_equal(closed.minor, hw.minor));
}

TEST(Emitter, MatchesEquationOneAbovesmoothing) {
  // Q = EC * p^0.5 (Eq. 1).
  const auto ef = emitter_flow(0.003, 0.5, 25.0);
  EXPECT_NEAR(ef.flow, 0.003 * 5.0, 1e-12);
  EXPECT_NEAR(ef.gradient, 0.003 * 0.5 / 5.0, 1e-12);
}

TEST(Emitter, ZeroBelowZeroPressure) {
  const auto ef = emitter_flow(0.003, 0.5, -5.0);
  EXPECT_DOUBLE_EQ(ef.flow, 0.0);
  EXPECT_DOUBLE_EQ(ef.gradient, 0.0);
}

TEST(Emitter, SmoothingIsContinuousAtBoundary) {
  const double p0 = 1.0;  // smoothing boundary
  const auto below = emitter_flow(0.003, 0.5, p0 - 1e-9);
  const auto above = emitter_flow(0.003, 0.5, p0 + 1e-9);
  EXPECT_NEAR(below.flow, above.flow, 1e-9);
  EXPECT_NEAR(below.gradient, above.gradient, 1e-6);
}

TEST(Emitter, SmoothingVanishesAtZero) {
  const auto ef = emitter_flow(0.003, 0.5, 1e-12);
  EXPECT_NEAR(ef.flow, 0.0, 1e-12);
  EXPECT_NEAR(ef.gradient, 0.0, 1e-9);
}

TEST(Emitter, FlowMonotoneInPressure) {
  double previous = 0.0;
  for (double p = 0.01; p < 50.0; p *= 1.5) {
    const double flow = emitter_flow(0.002, 0.5, p).flow;
    EXPECT_GE(flow, previous);
    previous = flow;
  }
}

TEST(Emitter, LargerCoefficientMoreFlow) {
  EXPECT_GT(emitter_flow(0.004, 0.5, 20.0).flow, emitter_flow(0.002, 0.5, 20.0).flow);
}

TEST(Emitter, NoLeakNoFlow) {
  const auto ef = emitter_flow(0.0, 0.5, 30.0);
  EXPECT_DOUBLE_EQ(ef.flow, 0.0);
}

}  // namespace
}  // namespace aqua::hydraulics
