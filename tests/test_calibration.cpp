/** @file Unit and property tests for power-curve calibration. */

#include <gtest/gtest.h>

#include "power/calibration.hpp"
#include "simcore/random.hpp"

namespace vpm::power {
namespace {

TEST(FitLinearTest, RecoversExactLine)
{
    std::vector<PowerSamplePoint> samples;
    for (int i = 0; i <= 10; ++i) {
        const double u = i / 10.0;
        samples.emplace_back(u, 120.0 + 100.0 * u);
    }
    const LinearFit fit = fitLinearPowerCurve(samples);
    EXPECT_NEAR(fit.idleWatts, 120.0, 1e-9);
    EXPECT_NEAR(fit.peakWatts, 220.0, 1e-9);
    EXPECT_NEAR(fit.rmseWatts, 0.0, 1e-9);
}

TEST(FitLinearTest, RobustToNoise)
{
    sim::Rng rng(5);
    std::vector<PowerSamplePoint> samples;
    for (int i = 0; i < 500; ++i) {
        const double u = rng.uniform01();
        samples.emplace_back(u, 150.0 + 90.0 * u + rng.normal(0.0, 5.0));
    }
    const LinearFit fit = fitLinearPowerCurve(samples);
    EXPECT_NEAR(fit.idleWatts, 150.0, 3.0);
    EXPECT_NEAR(fit.peakWatts, 240.0, 3.0);
    EXPECT_NEAR(fit.rmseWatts, 5.0, 1.0);
}

TEST(FitLinearTest, ClampsNegativeIntercept)
{
    // A steep line crossing zero: the fit must remain constructible.
    const std::vector<PowerSamplePoint> samples{
        {0.5, 10.0}, {0.6, 30.0}, {0.8, 70.0}, {1.0, 110.0}};
    const LinearFit fit = fitLinearPowerCurve(samples);
    EXPECT_GE(fit.idleWatts, 0.0);
    EXPECT_GE(fit.peakWatts, fit.idleWatts);
    const auto curve = makeFittedLinearCurve(samples);
    EXPECT_GE(curve->powerAt(0.0), 0.0);
}

TEST(FitLinearDeathTest, RejectsDegenerateInput)
{
    EXPECT_EXIT(fitLinearPowerCurve({{0.5, 100.0}}),
                ::testing::ExitedWithCode(1), "2 samples");
    EXPECT_EXIT(fitLinearPowerCurve({{0.5, 100.0}, {0.5, 120.0}}),
                ::testing::ExitedWithCode(1), "single");
}

TEST(IsotonicTest, MonotoneInputUnchanged)
{
    const std::vector<double> input{1.0, 2.0, 2.0, 5.0, 9.0};
    EXPECT_EQ(isotonicRegression(input), input);
}

TEST(IsotonicTest, SimpleViolatorPooled)
{
    const std::vector<double> result = isotonicRegression({1.0, 3.0, 2.0});
    ASSERT_EQ(result.size(), 3u);
    EXPECT_DOUBLE_EQ(result[0], 1.0);
    EXPECT_DOUBLE_EQ(result[1], 2.5);
    EXPECT_DOUBLE_EQ(result[2], 2.5);
}

TEST(IsotonicTest, DecreasingInputBecomesGlobalMean)
{
    const std::vector<double> result =
        isotonicRegression({5.0, 4.0, 3.0, 2.0, 1.0});
    for (const double v : result)
        EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(IsotonicTest, OutputAlwaysMonotoneAndMeanPreserving)
{
    sim::Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> input;
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 40));
        double mean_in = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            input.push_back(rng.uniform(0.0, 100.0));
            mean_in += input.back();
        }
        const std::vector<double> output = isotonicRegression(input);
        ASSERT_EQ(output.size(), input.size());
        double mean_out = 0.0;
        for (std::size_t i = 0; i < output.size(); ++i) {
            mean_out += output[i];
            if (i > 0) {
                ASSERT_GE(output[i], output[i - 1] - 1e-12);
            }
        }
        EXPECT_NEAR(mean_out, mean_in, 1e-6);
    }
}

TEST(FitPiecewiseTest, RecoversCleanCurve)
{
    // Sample a known piecewise curve densely and refit it.
    const PiecewisePowerCurve truth(
        {155.0, 170.0, 182.0, 192.0, 201.0, 210.0, 219.0, 228.0, 237.0,
         246.0, 255.0});
    std::vector<PowerSamplePoint> samples;
    for (int i = 0; i <= 1000; ++i) {
        const double u = i / 1000.0;
        samples.emplace_back(u, truth.powerAt(u));
    }
    // Bucket averaging biases each breakpoint by up to slope x half a
    // bucket width (~3.8 W on the steepest segment here).
    const auto fitted = makeFittedPiecewiseCurve(samples, 11);
    for (double u = 0.0; u <= 1.0; u += 0.05)
        EXPECT_NEAR(fitted->powerAt(u), truth.powerAt(u), 4.0);
}

TEST(FitPiecewiseTest, NoisySamplesYieldMonotoneCurve)
{
    sim::Rng rng(13);
    std::vector<PowerSamplePoint> samples;
    for (int i = 0; i < 2000; ++i) {
        const double u = rng.uniform01();
        samples.emplace_back(u,
                             155.0 + 100.0 * u + rng.normal(0.0, 12.0));
    }
    const auto fitted = makeFittedPiecewiseCurve(samples, 11);
    double previous = fitted->powerAt(0.0);
    for (int i = 1; i <= 100; ++i) {
        const double p = fitted->powerAt(i / 100.0);
        ASSERT_GE(p, previous - 1e-9);
        previous = p;
    }
}

TEST(FitPiecewiseTest, SparseSamplesInterpolateGaps)
{
    // Only three measured operating points; the rest must interpolate.
    const std::vector<PowerSamplePoint> samples{
        {0.0, 100.0}, {0.5, 150.0}, {1.0, 200.0}};
    const auto fitted = makeFittedPiecewiseCurve(samples, 11);
    EXPECT_NEAR(fitted->powerAt(0.25), 125.0, 6.0);
    EXPECT_NEAR(fitted->powerAt(0.75), 175.0, 6.0);
}

TEST(FitPiecewiseTest, SingleSampleGivesFlatCurve)
{
    const auto fitted =
        makeFittedPiecewiseCurve({{0.4, 180.0}}, 5);
    EXPECT_DOUBLE_EQ(fitted->powerAt(0.0), 180.0);
    EXPECT_DOUBLE_EQ(fitted->powerAt(1.0), 180.0);
}

TEST(FitPiecewiseDeathTest, RejectsBadInput)
{
    EXPECT_EXIT(makeFittedPiecewiseCurve({}),
                ::testing::ExitedWithCode(1), "no samples");
    EXPECT_EXIT(makeFittedPiecewiseCurve({{0.5, 100.0}}, 1),
                ::testing::ExitedWithCode(1), "breakpoints");
}

} // namespace
} // namespace vpm::power
