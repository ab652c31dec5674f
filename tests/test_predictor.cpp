/** @file Unit tests for the demand predictors. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/predictor.hpp"

namespace vpm::mgmt {
namespace {

TEST(LastValuePredictorTest, EchoesLastObservation)
{
    LastValuePredictor p;
    EXPECT_DOUBLE_EQ(p.predict(), 0.0);
    p.observe(5.0);
    EXPECT_DOUBLE_EQ(p.predict(), 5.0);
    p.observe(2.0);
    EXPECT_DOUBLE_EQ(p.predict(), 2.0);
}

TEST(EwmaPredictorTest, SeedsWithFirstObservation)
{
    EwmaPredictor p(0.5);
    p.observe(10.0);
    EXPECT_DOUBLE_EQ(p.predict(), 10.0);
}

TEST(EwmaPredictorTest, BlendsWithConfiguredAlpha)
{
    EwmaPredictor p(0.5);
    p.observe(10.0);
    p.observe(20.0);
    EXPECT_DOUBLE_EQ(p.predict(), 15.0);
    p.observe(15.0);
    EXPECT_DOUBLE_EQ(p.predict(), 15.0);
}

TEST(EwmaPredictorTest, ConvergesToConstantInput)
{
    EwmaPredictor p(0.3);
    for (int i = 0; i < 100; ++i)
        p.observe(7.0);
    EXPECT_NEAR(p.predict(), 7.0, 1e-9);
}

TEST(EwmaPredictorDeathTest, RejectsBadAlpha)
{
    EXPECT_EXIT(EwmaPredictor(0.0), ::testing::ExitedWithCode(1), "alpha");
    EXPECT_EXIT(EwmaPredictor(1.1), ::testing::ExitedWithCode(1), "alpha");
}

TEST(WindowMaxPredictorTest, TracksWindowMaximum)
{
    WindowMaxPredictor p(3);
    p.observe(5.0);
    p.observe(9.0);
    p.observe(3.0);
    EXPECT_DOUBLE_EQ(p.predict(), 9.0);
    p.observe(2.0); // 9 falls out of the window? No: window {9,3,2}
    EXPECT_DOUBLE_EQ(p.predict(), 9.0);
    p.observe(1.0); // window {3,2,1}
    EXPECT_DOUBLE_EQ(p.predict(), 3.0);
}

TEST(WindowMaxPredictorTest, EmptyPredictsZero)
{
    WindowMaxPredictor p(5);
    EXPECT_DOUBLE_EQ(p.predict(), 0.0);
}

TEST(WindowMaxPredictorTest, NeverBelowCurrentObservation)
{
    WindowMaxPredictor p(6);
    for (double x : {1.0, 4.0, 2.0, 8.0, 3.0}) {
        p.observe(x);
        EXPECT_GE(p.predict(), x);
    }
}

TEST(WindowMaxPredictorDeathTest, RejectsZeroWindow)
{
    EXPECT_EXIT(WindowMaxPredictor(0), ::testing::ExitedWithCode(1),
                "window");
}

TEST(LinearTrendPredictorTest, ExtrapolatesALine)
{
    LinearTrendPredictor p(4);
    for (double x : {1.0, 2.0, 3.0, 4.0})
        p.observe(x);
    EXPECT_NEAR(p.predict(), 5.0, 1e-9);
}

TEST(LinearTrendPredictorTest, FlatInputStaysFlat)
{
    LinearTrendPredictor p(5);
    for (int i = 0; i < 5; ++i)
        p.observe(3.0);
    EXPECT_NEAR(p.predict(), 3.0, 1e-9);
}

TEST(LinearTrendPredictorTest, DecliningInputClampedAtZero)
{
    LinearTrendPredictor p(3);
    for (double x : {2.0, 1.0, 0.0})
        p.observe(x);
    EXPECT_DOUBLE_EQ(p.predict(), 0.0);
}

TEST(LinearTrendPredictorTest, SingleObservationEchoes)
{
    LinearTrendPredictor p(4);
    p.observe(6.0);
    EXPECT_DOUBLE_EQ(p.predict(), 6.0);
}

TEST(PeriodicProfilePredictorTest, BehavesLikeLastValueBeforeFirstPeriod)
{
    PeriodicProfilePredictor p(10);
    p.observe(3.0);
    EXPECT_DOUBLE_EQ(p.predict(), 3.0);
    p.observe(7.0);
    EXPECT_DOUBLE_EQ(p.predict(), 7.0);
    EXPECT_FALSE(p.profileComplete());
}

TEST(PeriodicProfilePredictorTest, AnticipatesRecurringRamp)
{
    // 10-slot day: low everywhere except a surge in slots 5-6.
    PeriodicProfilePredictor p(10, 0.3, 2);
    const auto day_value = [](std::size_t slot) {
        return (slot == 5 || slot == 6) ? 9.0 : 1.0;
    };
    for (int day = 0; day < 3; ++day)
        for (std::size_t s = 0; s < 10; ++s)
            p.observe(day_value(s));
    EXPECT_TRUE(p.profileComplete());

    // Now in day 4, observing slots 0..3: the forecast looking 2 slots
    // ahead from slot 4 must see the learned surge at slot 5.
    for (std::size_t s = 0; s < 4; ++s)
        p.observe(day_value(s));
    EXPECT_GT(p.predict(), 5.0); // anticipation, despite last == 1.0

    // Right after the surge passes, the forecast relaxes again.
    p.observe(day_value(4));
    p.observe(day_value(5));
    p.observe(day_value(6));
    p.observe(day_value(7));
    EXPECT_LT(p.predict(), 3.0);
}

TEST(PeriodicProfilePredictorTest, FlooredByFreshObservation)
{
    PeriodicProfilePredictor p(4, 0.3, 1);
    for (int day = 0; day < 3; ++day)
        for (int s = 0; s < 4; ++s)
            p.observe(1.0);
    // A today-only anomaly must not be forecast away by the profile.
    p.observe(50.0);
    EXPECT_GE(p.predict(), 50.0);
}

TEST(PeriodicProfilePredictorTest, ProfileTracksDriftViaEwma)
{
    PeriodicProfilePredictor p(4, 0.5, 1);
    for (int day = 0; day < 2; ++day)
        for (int s = 0; s < 4; ++s)
            p.observe(2.0);
    // The level doubles; within a few days the profile follows.
    for (int day = 0; day < 6; ++day)
        for (int s = 0; s < 4; ++s)
            p.observe(4.0);
    EXPECT_NEAR(p.predict(), 4.0, 0.2);
}

TEST(PeriodicProfilePredictorDeathTest, RejectsBadConfig)
{
    EXPECT_EXIT(PeriodicProfilePredictor(1), ::testing::ExitedWithCode(1),
                "slots");
    EXPECT_EXIT(PeriodicProfilePredictor(10, 0.0),
                ::testing::ExitedWithCode(1), "alpha");
    EXPECT_EXIT(PeriodicProfilePredictor(10, 0.3, 0),
                ::testing::ExitedWithCode(1), "look-ahead");
}

TEST(PredictorFactoryTest, MakesEveryKind)
{
    for (const PredictorKind kind :
         {PredictorKind::LastValue, PredictorKind::Ewma,
          PredictorKind::WindowMax, PredictorKind::LinearTrend,
          PredictorKind::PeriodicProfile}) {
        const auto p = makePredictor(kind);
        ASSERT_NE(p, nullptr);
        p->observe(4.0);
        EXPECT_GT(p->predict(), 0.0);
        EXPECT_NE(toString(kind), nullptr);
    }
}

TEST(PredictorCloneTest, ClonesAreFreshAndIndependent)
{
    WindowMaxPredictor p(3);
    p.observe(100.0);
    const auto clone = p.clone();
    EXPECT_DOUBLE_EQ(clone->predict(), 0.0); // fresh, no history
    clone->observe(5.0);
    EXPECT_DOUBLE_EQ(p.predict(), 100.0); // original untouched
}

/** The sliding-deque window-max the ring replaced. */
double
dequeWindowMax(const std::deque<double> &values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

/** The sliding-deque least-squares trend the ring replaced. */
double
dequeTrend(const std::deque<double> &values)
{
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    if (n == 1)
        return values.front();
    const double nn = static_cast<double>(n);
    double sum_x = 0.0, sum_y = 0.0, sum_xy = 0.0, sum_xx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(i);
        sum_x += x;
        sum_y += values[i];
        sum_xy += x * values[i];
        sum_xx += x * x;
    }
    const double denom = nn * sum_xx - sum_x * sum_x;
    if (denom == 0.0)
        return values.back();
    const double slope = (nn * sum_xy - sum_x * sum_y) / denom;
    const double intercept = (sum_y - slope * sum_x) / nn;
    return std::max(0.0, intercept + slope * nn);
}

TEST(RingWindowPredictorTest, MatchesSlidingDequeAcrossManyWraps)
{
    std::uint64_t state = 99;
    const auto uniform = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(state >> 11) * 0x1.0p-53;
    };
    for (std::size_t window = 1; window <= RingWindow::kCapacity;
         ++window) {
        WindowMaxPredictor max_ring(window);
        std::unique_ptr<LinearTrendPredictor> trend_ring;
        if (window >= 2)
            trend_ring = std::make_unique<LinearTrendPredictor>(window);
        std::deque<double> reference;
        // 40 wraps of the largest ring; plateaus make ties common.
        for (int i = 0; i < 40 * 16; ++i) {
            const double u = uniform();
            const double v = u < 0.2 ? 0.5 : 100.0 * u;
            max_ring.observe(v);
            if (trend_ring)
                trend_ring->observe(v);
            reference.push_back(v);
            if (reference.size() > window)
                reference.pop_front();
            ASSERT_EQ(max_ring.predict(), dequeWindowMax(reference))
                << "window " << window << " step " << i;
            if (trend_ring) {
                ASSERT_EQ(trend_ring->predict(), dequeTrend(reference))
                    << "window " << window << " step " << i;
            }
        }
    }
}

TEST(RingWindowPredictorTest, StateIsOldestFirstAfterAWrap)
{
    WindowMaxPredictor max_ring(3);
    LinearTrendPredictor trend_ring(3);
    for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
        max_ring.observe(v);
        trend_ring.observe(v);
    }
    const std::vector<double> expect = {3.0, 3.0, 4.0, 5.0};
    std::vector<double> got;
    max_ring.appendState(got);
    EXPECT_EQ(got, expect);
    got.clear();
    trend_ring.appendState(got);
    EXPECT_EQ(got, expect);

    // Before the ring fills: just what was seen, in order.
    WindowMaxPredictor partial(4);
    partial.observe(7.0);
    partial.observe(6.0);
    got.clear();
    partial.appendState(got);
    EXPECT_EQ(got, (std::vector<double>{2.0, 7.0, 6.0}));
}

TEST(RingWindowPredictorDeathTest, RejectsWindowsBeyondCapacity)
{
    EXPECT_EXIT(WindowMaxPredictor(RingWindow::kCapacity + 1),
                ::testing::ExitedWithCode(1), "window");
    EXPECT_EXIT(LinearTrendPredictor(1), ::testing::ExitedWithCode(1),
                "window");
    EXPECT_EXIT(LinearTrendPredictor(RingWindow::kCapacity + 1),
                ::testing::ExitedWithCode(1), "window");
}

/** Property: on ramp inputs, trend over-forecasts persistence. */
class PredictorRampSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PredictorRampSweep, TrendLeadsPersistenceOnRamps)
{
    const double slope = GetParam();
    LastValuePredictor last;
    LinearTrendPredictor trend(6);
    for (int i = 0; i < 20; ++i) {
        const double x = 10.0 + slope * i;
        last.observe(x);
        trend.observe(x);
    }
    EXPECT_GT(trend.predict(), last.predict());
}

INSTANTIATE_TEST_SUITE_P(Slopes, PredictorRampSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0));

} // namespace
} // namespace vpm::mgmt
