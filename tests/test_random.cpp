/** @file Unit and statistical tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "simcore/random.hpp"

namespace vpm::sim {
namespace {

TEST(RngTest, SameSeedSameStream)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(7), b(8);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(RngTest, ForkedStreamsAreDecorrelated)
{
    Rng parent(1);
    Rng child_a = parent.fork();
    Rng child_b = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += child_a.next() == child_b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(RngTest, Uniform01InRangeAndCentered)
{
    Rng rng(3);
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform01();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRespectsBounds)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-3.0, 7.0);
        ASSERT_GE(x, -3.0);
        ASSERT_LT(x, 7.0);
    }
}

TEST(RngTest, UniformIntCoversRangeInclusive)
{
    Rng rng(5);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t x = rng.uniformInt(1, 6);
        ASSERT_GE(x, 1);
        ASSERT_LE(x, 6);
        seen.insert(x);
    }
    EXPECT_EQ(seen.size(), 6u); // all faces of the die appear
}

TEST(RngTest, UniformIntDegenerateRange)
{
    Rng rng(6);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(RngTest, NormalMomentsMatch)
{
    Rng rng(7);
    double sum = 0.0, sum_sq = 0.0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalScalesMeanAndStddev)
{
    Rng rng(8);
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, ExponentialMeanMatches)
{
    Rng rng(9);
    double sum = 0.0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(3.0);
        ASSERT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, BernoulliFrequencyMatches)
{
    Rng rng(10);
    int hits = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(HashedNoiseTest, DeterministicAndOrderIndependent)
{
    const double a = hashedUniform01(5, 100);
    const double b = hashedUniform01(5, 7);
    EXPECT_EQ(hashedUniform01(5, 100), a);
    EXPECT_EQ(hashedUniform01(5, 7), b);
}

TEST(HashedNoiseTest, DifferentSeedsOrIndicesDiffer)
{
    EXPECT_NE(hashedUniform01(1, 0), hashedUniform01(2, 0));
    EXPECT_NE(hashedUniform01(1, 0), hashedUniform01(1, 1));
}

TEST(HashedNoiseTest, UniformRangeAndMean)
{
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = hashedUniform01(99, static_cast<std::uint64_t>(i));
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(HashedNoiseTest, NormalMomentsMatch)
{
    double sum = 0.0, sum_sq = 0.0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = hashedNormal(42, static_cast<std::uint64_t>(i));
        sum += x;
        sum_sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngDeathTest, InvalidArgumentsPanic)
{
    Rng rng(1);
    EXPECT_DEATH(rng.uniform(2.0, 1.0), "lo");
    EXPECT_DEATH(rng.uniformInt(5, 4), "lo");
    EXPECT_DEATH(rng.exponential(0.0), "positive");
}

TEST(Fnv1aTest, MatchesThePublishedVectorsAndChains)
{
    // 64-bit FNV-1a reference values: the empty input is the offset
    // basis itself.
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
    // Continuing from a prefix's hash equals hashing the whole input.
    EXPECT_EQ(fnv1a("bar", 3, fnv1a("foo", 3)), fnv1a("foobar", 6));
}

} // namespace
} // namespace vpm::sim
