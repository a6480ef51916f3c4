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
  const auto fwd = link_loss(pipe, 0.05, HeadLossModel::kHazenWilliams);
  const auto bwd = link_loss(pipe, -0.05, HeadLossModel::kHazenWilliams);
  EXPECT_NEAR(fwd.loss, -bwd.loss, 1e-12);
  EXPECT_NEAR(fwd.gradient, bwd.gradient, 1e-12);
}

TEST(LinkLoss, PipeLossMatchesPowerLaw) {
  const Link pipe = make_pipe();
  const double r = hazen_williams_resistance(pipe.length, pipe.diameter, pipe.roughness);
  const auto lg = link_loss(pipe, 0.05, HeadLossModel::kHazenWilliams);
  EXPECT_NEAR(lg.loss, r * std::pow(0.05, 1.852), 1e-9);
  EXPECT_NEAR(lg.gradient, 1.852 * r * std::pow(0.05, 0.852), 1e-9);
}

TEST(LinkLoss, GradientAlwaysPositive) {
  const Link pipe = make_pipe();
  for (double q : {-0.5, -0.01, -1e-9, 0.0, 1e-9, 0.01, 0.5}) {
    EXPECT_GT(link_loss(pipe, q, HeadLossModel::kHazenWilliams).gradient, 0.0) << "q=" << q;
    EXPECT_GT(link_loss(pipe, q, HeadLossModel::kDarcyWeisbach).gradient, 0.0) << "q=" << q;
  }
}

TEST(LinkLoss, LossMonotoneInFlow) {
  const Link pipe = make_pipe();
  double previous = link_loss(pipe, 0.0, HeadLossModel::kHazenWilliams).loss;
  for (double q = 0.001; q < 0.2; q += 0.005) {
    const double loss = link_loss(pipe, q, HeadLossModel::kHazenWilliams).loss;
    EXPECT_GT(loss, previous);
    previous = loss;
  }
}

TEST(LinkLoss, ClosedLinkActsAsHugeResistance) {
  Link pipe = make_pipe();
  pipe.status = LinkStatus::kClosed;
  const auto lg = link_loss(pipe, 0.01, HeadLossModel::kHazenWilliams);
  EXPECT_GT(lg.gradient, 1e7);
  EXPECT_NEAR(lg.loss, lg.gradient * 0.01, 1e-6);
}

TEST(LinkLoss, MinorLossAddsQuadraticTerm) {
  Link plain = make_pipe();
  Link lossy = make_pipe();
  lossy.minor_loss = 10.0;
  const double q = 0.05;
  EXPECT_GT(link_loss(lossy, q, HeadLossModel::kHazenWilliams).loss,
            link_loss(plain, q, HeadLossModel::kHazenWilliams).loss);
}

TEST(LinkLoss, DarcyWeisbachReasonableMagnitude) {
  // Compare the two friction laws at matched roughness semantics: HW C of
  // ~130 corresponds to a fairly smooth main (DW roughness ~0.25 mm). They
  // should agree within a factor of ~2 in the turbulent regime.
  const double hw_loss = hazen_williams_resistance(100.0, 0.3, 130.0) * std::pow(0.05, 1.852);
  const double dw_loss = darcy_weisbach_resistance(100.0, 0.3, 0.25, 0.05) * 0.05 * 0.05;
  EXPECT_GT(dw_loss, 0.5 * hw_loss);
  EXPECT_LT(dw_loss, 2.0 * hw_loss);
}

TEST(LinkLoss, DarcyWeisbachRougherPipeMoreLoss) {
  EXPECT_GT(darcy_weisbach_resistance(100.0, 0.3, 1.5, 0.05),
            darcy_weisbach_resistance(100.0, 0.3, 0.1, 0.05));
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
  const auto lg = link_loss(pump, 0.1, HeadLossModel::kHazenWilliams);
  EXPECT_NEAR(lg.loss, -(50.0 - 10.0), 1e-12);  // head gain of 40 m
}

TEST(PumpLoss, ReverseFlowHeavilyPenalized) {
  Link pump;
  pump.type = LinkType::kPump;
  pump.pump = {50.0, 1000.0, 2.0};
  const auto lg = link_loss(pump, -0.01, HeadLossModel::kHazenWilliams);
  EXPECT_GT(lg.gradient, 1e5);
}

TEST(ValveLoss, SettingThrottles) {
  Link valve;
  valve.type = LinkType::kValve;
  valve.diameter = 0.3;
  valve.valve_setting = 1.0;
  const auto open = link_loss(valve, 0.05, HeadLossModel::kHazenWilliams);
  valve.valve_setting = 20.0;
  const auto throttled = link_loss(valve, 0.05, HeadLossModel::kHazenWilliams);
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
void expect_split_matches_composed(const Link& link, HeadLossModel model,
                                   const std::vector<double>& flows) {
  const LossCoefficients coefficients = link_loss_coefficients(link, model);
  for (const double q : flows) {
    const LossGradient split = link_loss(link, coefficients, q, model);
    const LossGradient composed = link_loss(link, q, model);
    EXPECT_TRUE(bits_equal(split.loss, composed.loss)) << "loss at q=" << q;
    EXPECT_TRUE(bits_equal(split.gradient, composed.gradient)) << "gradient at q=" << q;
  }
}

// Flows on both sides of zero, including the |q| < 1e-6 linearized branch.
const std::vector<double> kFlows = {-0.2, -0.05, -5e-7, 0.0, 3e-7, 0.05, 0.2};

TEST(LossCoefficients, HazenWilliamsPipeSplitIsBitExact) {
  Link pipe = make_pipe();
  expect_split_matches_composed(pipe, HeadLossModel::kHazenWilliams, kFlows);
  pipe.minor_loss = 10.0;
  expect_split_matches_composed(pipe, HeadLossModel::kHazenWilliams, kFlows);
}

TEST(LossCoefficients, DarcyWeisbachPipeSplitIsBitExact) {
  Link pipe = make_pipe(100.0, 0.3, 0.3);  // DW roughness in mm
  expect_split_matches_composed(pipe, HeadLossModel::kDarcyWeisbach, kFlows);
  pipe.minor_loss = 10.0;
  expect_split_matches_composed(pipe, HeadLossModel::kDarcyWeisbach, kFlows);
}

TEST(LossCoefficients, ValveSplitIsBitExact) {
  Link valve;
  valve.type = LinkType::kValve;
  valve.diameter = 0.3;
  for (const double setting : {0.0, 5.0}) {  // 0 exercises the 0.1 floor
    valve.valve_setting = setting;
    expect_split_matches_composed(valve, HeadLossModel::kHazenWilliams, kFlows);
  }
}

TEST(LossCoefficients, PumpSplitIsBitExactForwardAndReverse) {
  Link pump;
  pump.type = LinkType::kPump;
  pump.pump = {50.0, 1000.0, 2.0};
  expect_split_matches_composed(pump, HeadLossModel::kHazenWilliams, {-0.01, 0.0, 0.05, 0.1});
}

TEST(LossCoefficients, ClosedLinkSplitIsBitExact) {
  Link pipe = make_pipe();
  pipe.minor_loss = 10.0;
  pipe.status = LinkStatus::kClosed;
  expect_split_matches_composed(pipe, HeadLossModel::kHazenWilliams, {-0.01, 0.0, 0.01});
}

TEST(LossCoefficients, AreTheFlowIndependentConstantsAndIgnoreStatus) {
  Link pipe = make_pipe();
  pipe.minor_loss = 10.0;
  const LossCoefficients hw = link_loss_coefficients(pipe, HeadLossModel::kHazenWilliams);
  EXPECT_TRUE(bits_equal(hw.resistance, hazen_williams_resistance(100.0, 0.3, 120.0)));
  EXPECT_DOUBLE_EQ(hw.minor, 0.02517 * 10.0 / std::pow(0.3, 4));
  // Darcy-Weisbach friction depends on flow, so only the minor loss hoists.
  const LossCoefficients dw = link_loss_coefficients(pipe, HeadLossModel::kDarcyWeisbach);
  EXPECT_EQ(dw.resistance, 0.0);
  EXPECT_TRUE(bits_equal(dw.minor, hw.minor));
  // Status is read per evaluation, so toggling it needs no recomputation.
  pipe.status = LinkStatus::kClosed;
  const LossCoefficients closed = link_loss_coefficients(pipe, HeadLossModel::kHazenWilliams);
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
