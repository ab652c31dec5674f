/** @file Unit tests for Summary, TimeWeighted, Histogram and SlaTracker. */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/histogram.hpp"
#include "stats/sla_tracker.hpp"
#include "stats/summary.hpp"

namespace vpm::stats {
namespace {

using sim::SimTime;

TEST(SummaryTest, EmptySummaryIsZero)
{
    const Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, BasicMoments)
{
    Summary s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, MergeMatchesSequential)
{
    Summary all, left, right;
    for (int i = 0; i < 100; ++i) {
        const double x = i * 0.7 - 20.0;
        all.add(x);
        (i < 40 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), all.min());
    EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(SummaryTest, MergeWithEmptyIsIdentity)
{
    Summary s, empty;
    s.add(3.0);
    s.merge(empty);
    EXPECT_EQ(s.count(), 1u);
    empty.merge(s);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(TimeWeightedTest, ConstantSignal)
{
    TimeWeighted tw(SimTime(), 5.0);
    tw.finish(SimTime::seconds(10.0));
    EXPECT_DOUBLE_EQ(tw.average(), 5.0);
    EXPECT_DOUBLE_EQ(tw.integralSeconds(), 50.0);
}

TEST(TimeWeightedTest, StepSignal)
{
    TimeWeighted tw(SimTime(), 0.0);
    tw.update(SimTime::seconds(4.0), 10.0); // 0 for 4 s
    tw.finish(SimTime::seconds(8.0));       // 10 for 4 s
    EXPECT_DOUBLE_EQ(tw.average(), 5.0);
}

TEST(TimeWeightedTest, EmptyWindowReturnsHeldValue)
{
    const TimeWeighted tw(SimTime::seconds(3.0), 7.0);
    EXPECT_DOUBLE_EQ(tw.average(), 7.0);
}

TEST(HistogramTest, CountsAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.5);
    h.add(9.5);
    h.add(15.0);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(HistogramTest, LowerEdgeInclusiveUpperEdgeExclusive)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.0);    // first bucket, inclusive lower edge
    h.add(1.0);    // exact internal edge belongs to the upper bucket
    h.add(9.999);  // last bucket
    h.add(10.0);   // upper edge is exclusive -> overflow
    h.add(-0.001); // below range -> underflow

    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.count(), 5u);
}

TEST(HistogramTest, EveryInternalEdgeBelongsToItsUpperBucket)
{
    // Bucket i spans [lo + i*w, lo + (i+1)*w) — closed below, open above —
    // so a sample exactly on an internal edge counts in the bucket whose
    // range it opens.
    Histogram h(0.0, 4.0, 4);
    h.add(0.0);
    h.add(1.0);
    h.add(2.0);
    h.add(3.0);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(HistogramTest, PercentileClampsOutOfRangeSamples)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);
    h.add(50.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(HistogramTest, PercentileOfUniformSamples)
{
    Histogram h(0.0, 1.0, 100);
    for (int i = 0; i < 1000; ++i)
        h.add((i + 0.5) / 1000.0);
    EXPECT_NEAR(h.percentile(0.5), 0.5, 0.02);
    EXPECT_NEAR(h.percentile(0.95), 0.95, 0.02);
    EXPECT_NEAR(h.percentile(0.05), 0.05, 0.02);
}

TEST(HistogramTest, PercentileEdgeCases)
{
    Histogram h(0.0, 1.0, 10);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0); // empty
    h.add(0.35);
    EXPECT_NEAR(h.percentile(0.5), 0.35, 0.1);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
}

TEST(HistogramTest, FractionBelow)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.fractionBelow(5.0), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(h.fractionBelow(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionBelow(10.0), 1.0);
}

TEST(HistogramDeathTest, RejectsBadConstruction)
{
    EXPECT_EXIT(Histogram(1.0, 1.0, 10), ::testing::ExitedWithCode(1),
                "exceed");
    EXPECT_EXIT(Histogram(0.0, 1.0, 0), ::testing::ExitedWithCode(1),
                "bucket");
}

TEST(HistogramTest, MergeMatchesSequentialFill)
{
    Histogram all(0.0, 10.0, 20);
    Histogram a(0.0, 10.0, 20);
    Histogram b(0.0, 10.0, 20);
    for (int i = 0; i < 200; ++i) {
        const double v = -1.0 + 12.0 * i / 200.0; // spans under/overflow
        all.add(v);
        (i < 90 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.underflow(), all.underflow());
    EXPECT_EQ(a.overflow(), all.overflow());
    for (double f : {0.05, 0.5, 0.95})
        EXPECT_DOUBLE_EQ(a.percentile(f), all.percentile(f));
}

TEST(HistogramTest, ResetClearsAllCounts)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(5.0);
    h.add(15.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    h.add(5.0); // still usable after reset
    EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramDeathTest, MergeRejectsLayoutMismatch)
{
    Histogram a(0.0, 10.0, 10);
    Histogram bad_range(0.0, 20.0, 10);
    Histogram bad_buckets(0.0, 10.0, 20);
    EXPECT_DEATH(a.merge(bad_range), "layout");
    EXPECT_DEATH(a.merge(bad_buckets), "layout");
}

TEST(SlaTrackerTest, FullySatisfiedByDefault)
{
    SlaTracker sla;
    EXPECT_DOUBLE_EQ(sla.satisfaction(), 1.0);
    EXPECT_DOUBLE_EQ(sla.violationFraction(), 0.0);
}

TEST(SlaTrackerTest, TracksSatisfactionRatio)
{
    SlaTracker sla;
    sla.record(100.0, 100.0);
    sla.record(100.0, 50.0);
    EXPECT_DOUBLE_EQ(sla.satisfaction(), 0.75);
    EXPECT_EQ(sla.samples(), 2u);
    EXPECT_EQ(sla.violations(), 1u);
    EXPECT_DOUBLE_EQ(sla.violationFraction(), 0.5);
}

TEST(SlaTrackerTest, ZeroRequestCountsAsSatisfied)
{
    SlaTracker sla;
    sla.record(0.0, 0.0);
    EXPECT_DOUBLE_EQ(sla.satisfaction(), 1.0);
    EXPECT_EQ(sla.violations(), 0u);
}

TEST(SlaTrackerTest, ThresholdGovernsViolations)
{
    SlaTracker strict(0.999);
    strict.record(1000.0, 998.0);
    EXPECT_EQ(strict.violations(), 1u);

    SlaTracker lax(0.90);
    lax.record(1000.0, 950.0);
    EXPECT_EQ(lax.violations(), 0u);
}

TEST(SlaTrackerTest, WorstAndPercentile)
{
    SlaTracker sla;
    for (int i = 0; i < 99; ++i)
        sla.record(100.0, 100.0);
    sla.record(100.0, 20.0);
    EXPECT_DOUBLE_EQ(sla.worstPerformance(), 0.2);
    EXPECT_GT(sla.performancePercentile(0.05), 0.5);
    EXPECT_NEAR(sla.meanPerformance(), 0.992, 1e-9);
}

TEST(SlaTrackerDeathTest, RejectsInvalidSamples)
{
    SlaTracker sla;
    EXPECT_DEATH(sla.record(-1.0, 0.0), "negative");
    EXPECT_DEATH(sla.record(10.0, 20.0), "exceeds");
}

TEST(SlaTrackerTest, ShardOrderMergeMatchesSequentialRecording)
{
    // The exact reduction the parallel sampling pass performs: samples
    // split across per-shard trackers, merged back in shard order. Counts
    // and totals must be bit-identical to one sequential tracker.
    SlaTracker sequential(0.95);
    SlaTracker shard0(0.95);
    SlaTracker shard1(0.95);
    for (int i = 0; i < 100; ++i) {
        const double requested = 100.0 + i;
        const double granted = requested * (i % 10 == 0 ? 0.5 : 1.0);
        sequential.record(requested, granted);
        (i < 64 ? shard0 : shard1).record(requested, granted);
    }
    shard0.merge(shard1);
    EXPECT_EQ(shard0.samples(), sequential.samples());
    EXPECT_EQ(shard0.violations(), sequential.violations());
    EXPECT_EQ(shard0.satisfaction(), sequential.satisfaction());
    EXPECT_EQ(shard0.violationFraction(), sequential.violationFraction());
    EXPECT_EQ(shard0.worstPerformance(), sequential.worstPerformance());
    EXPECT_EQ(shard0.performancePercentile(0.05),
              sequential.performancePercentile(0.05));
}

TEST(SlaTrackerTest, ResetClearsEverything)
{
    SlaTracker sla(0.95);
    sla.record(100.0, 50.0);
    sla.reset();
    EXPECT_EQ(sla.samples(), 0u);
    EXPECT_EQ(sla.violations(), 0u);
    EXPECT_DOUBLE_EQ(sla.satisfaction(), 1.0);
    EXPECT_DOUBLE_EQ(sla.threshold(), 0.95); // threshold survives reset
}

TEST(SlaTrackerDeathTest, MergeRejectsThresholdMismatch)
{
    SlaTracker a(0.99);
    SlaTracker b(0.95);
    EXPECT_DEATH(a.merge(b), "threshold");
}

} // namespace
} // namespace vpm::stats
