/**
 * @file
 * Unit and property tests for the `vpm-ts-1` time-series store: Gorilla
 * bit packing, block encode/decode round-trips, bucket folding, shard
 * merging, eviction under a memory budget, and snapshot round-trips —
 * plus the end-to-end determinism contract (snapshot bytes identical at
 * any thread count).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/scenario.hpp"
#include "simcore/thread_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/timeseries.hpp"

namespace vpm::telemetry {
namespace {

/** Deterministic 64-bit PRNG (splitmix64) — no seeding surprises. */
struct SplitMix
{
    std::uint64_t state;
    explicit SplitMix(std::uint64_t seed) : state(seed) {}
    std::uint64_t next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    double uniform() // [0, 1)
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
};

// ------------------------------------------------------------ bit stream

TEST(BitStreamTest, RoundTripsMixedWidthFields)
{
    BitWriter writer;
    writer.writeBit(true);
    writer.writeBits(0x2bull, 7);
    writer.writeBits(0xdeadbeefcafef00dull, 64);
    writer.writeBit(false);
    writer.writeBits(5, 3);

    BitReader reader(writer.bytes().data(), writer.sizeBytes());
    EXPECT_TRUE(reader.readBit());
    EXPECT_EQ(reader.readBits(7), 0x2bull);
    EXPECT_EQ(reader.readBits(64), 0xdeadbeefcafef00dull);
    EXPECT_FALSE(reader.readBit());
    EXPECT_EQ(reader.readBits(3), 5ull);
}

TEST(BitStreamTest, ReadPastEndReturnsZeroAndReportsExhausted)
{
    BitWriter writer;
    writer.writeBits(0xff, 8);
    BitReader reader(writer.bytes().data(), writer.sizeBytes());
    EXPECT_EQ(reader.readBits(8), 0xffull);
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(reader.readBits(16), 0ull);
}

TEST(XorChannelTest, RepeatedValueCostsOneBitAfterTheFirst)
{
    BitWriter writer;
    XorChannel enc;
    for (int i = 0; i < 100; ++i)
        enc.write(writer, 42.5);
    // First value: 64 raw bits; every repeat: a single '0' bit.
    EXPECT_LE(writer.sizeBytes(), 8u + 100u / 8u + 2u);

    BitReader reader(writer.bytes().data(), writer.sizeBytes());
    XorChannel dec;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(dec.read(reader), 42.5);
}

// --------------------------------------------------------- block codec

std::vector<TsBucket>
randomWalkBuckets(std::uint64_t seed, int count, std::int64_t bucket_us)
{
    SplitMix rng(seed);
    std::vector<TsBucket> buckets;
    double level = 500.0 + rng.uniform() * 1000.0;
    std::int64_t t = static_cast<std::int64_t>(rng.next() % 7) * bucket_us;
    for (int i = 0; i < count; ++i) {
        TsBucket b;
        b.startUs = t;
        // Occasional gaps exercise the wider delta-of-delta codes.
        t += bucket_us * static_cast<std::int64_t>(1 + (rng.next() % 5 == 0
                                                            ? rng.next() % 40
                                                            : 0));
        const double a = level + (rng.uniform() - 0.5) * 50.0;
        const double c = level + (rng.uniform() - 0.5) * 50.0;
        level += (rng.uniform() - 0.5) * 20.0;
        b.min = std::min(a, c);
        b.max = std::max(a, c);
        b.count = 1 + rng.next() % 9;
        b.sum = (a + c) / 2.0 * static_cast<double>(b.count);
        b.last = c;
        buckets.push_back(b);
    }
    return buckets;
}

TEST(BlockCodecTest, RoundTripsRandomWalks)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const std::vector<TsBucket> buckets =
            randomWalkBuckets(seed, 1 + static_cast<int>(seed * 13) % 200,
                              60'000'000);
        const TsBlock block = encodeBlock(buckets);
        EXPECT_EQ(block.firstBucketUs, buckets.front().startUs);
        EXPECT_EQ(block.lastBucketUs, buckets.back().startUs);
        EXPECT_EQ(block.bucketCount, buckets.size());

        std::vector<TsBucket> decoded;
        ASSERT_TRUE(decodeBlock(block, decoded)) << "seed " << seed;
        ASSERT_EQ(decoded.size(), buckets.size());
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            EXPECT_EQ(decoded[i].startUs, buckets[i].startUs);
            EXPECT_EQ(decoded[i].min, buckets[i].min);
            EXPECT_EQ(decoded[i].max, buckets[i].max);
            EXPECT_EQ(decoded[i].sum, buckets[i].sum);
            EXPECT_EQ(decoded[i].count, buckets[i].count);
            EXPECT_EQ(decoded[i].last, buckets[i].last);
        }
    }
}

TEST(BlockCodecTest, ConstantSeriesCompressesFarBelowRaw)
{
    std::vector<TsBucket> buckets;
    for (int i = 0; i < 128; ++i) {
        TsBucket b;
        b.startUs = static_cast<std::int64_t>(i) * 60'000'000;
        b.min = b.max = b.sum = b.last = 250.0;
        b.count = 1;
        buckets.push_back(b);
    }
    const TsBlock block = encodeBlock(buckets);
    // Raw would be 128 buckets * 48 bytes; constants should compress to
    // well under a tenth of that.
    EXPECT_LT(block.payload.size(), 128u * 48u / 10u);

    std::vector<TsBucket> decoded;
    ASSERT_TRUE(decodeBlock(block, decoded));
    ASSERT_EQ(decoded.size(), buckets.size());
    EXPECT_EQ(decoded.back().last, 250.0);
}

TEST(BlockCodecTest, TruncatedPayloadFailsCleanly)
{
    const std::vector<TsBucket> buckets =
        randomWalkBuckets(7, 64, 60'000'000);
    TsBlock block = encodeBlock(buckets);
    block.payload.resize(block.payload.size() / 2);
    std::vector<TsBucket> decoded;
    EXPECT_FALSE(decodeBlock(block, decoded));
}

// -------------------------------------------------------------- store

TimeSeriesConfig
smallConfig(std::int64_t bucket_us = 1000, std::size_t budget = 1u << 20,
            std::size_t per_block = 8)
{
    TimeSeriesConfig config;
    config.bucketUs = bucket_us;
    config.memoryBudgetBytes = budget;
    config.bucketsPerBlock = per_block;
    return config;
}

TEST(TimeSeriesStoreTest, FoldsSamplesIntoAlignedBuckets)
{
    TimeSeriesStore store;
    store.configure(smallConfig(), true);
    const std::uint32_t id = store.seriesId("w");

    store.record(id, 100, 10.0);
    store.record(id, 900, 30.0);
    store.record(id, 1500, 20.0); // next bucket: seals [0, 1000)

    TsBucket sealed;
    ASSERT_TRUE(store.lastSealed(id, sealed));
    EXPECT_EQ(sealed.startUs, 0);
    EXPECT_EQ(sealed.min, 10.0);
    EXPECT_EQ(sealed.max, 30.0);
    EXPECT_EQ(sealed.sum, 40.0);
    EXPECT_EQ(sealed.count, 2u);
    EXPECT_EQ(sealed.last, 30.0);

    const auto buckets = store.query(id, 0, 10'000);
    ASSERT_EQ(buckets.size(), 2u); // sealed + open
    EXPECT_EQ(buckets[1].startUs, 1000);
    EXPECT_EQ(buckets[1].last, 20.0);
}

TEST(TimeSeriesStoreTest, DisabledStoreRecordsNothing)
{
    TimeSeriesStore store;
    store.configure(smallConfig(), false);
    const std::uint32_t id = store.seriesId("w");
    store.record(id, 100, 1.0);
    EXPECT_TRUE(store.query(id, 0, 1'000'000).empty());
    EXPECT_FALSE(store.enabled());
}

TEST(TimeSeriesStoreTest, StaleSampleFoldsIntoOpenBucket)
{
    TimeSeriesStore store;
    store.configure(smallConfig(), true);
    const std::uint32_t id = store.seriesId("w");
    store.record(id, 5000, 5.0);
    store.record(id, 100, 1.0); // stale: folds into the open bucket
    const auto buckets = store.query(id, 0, 10'000);
    ASSERT_EQ(buckets.size(), 1u);
    EXPECT_EQ(buckets[0].startUs, 5000);
    EXPECT_EQ(buckets[0].min, 1.0);
    EXPECT_EQ(buckets[0].count, 2u);
}

TEST(TimeSeriesStoreTest, QueryClipsToRangeAcrossBlocks)
{
    TimeSeriesStore store;
    store.configure(smallConfig(1000, 1u << 20, 4), true);
    const std::uint32_t id = store.seriesId("w");
    for (int i = 0; i < 40; ++i)
        store.record(id, static_cast<std::int64_t>(i) * 1000,
                     static_cast<double>(i));

    const auto buckets = store.query(id, 10'000, 19'999);
    ASSERT_EQ(buckets.size(), 10u);
    EXPECT_EQ(buckets.front().startUs, 10'000);
    EXPECT_EQ(buckets.back().startUs, 19'000);
    EXPECT_EQ(buckets.front().last, 10.0);
}

TEST(TimeSeriesStoreTest, EvictsOldestBlocksUnderMemoryBudget)
{
    TimeSeriesStore store;
    // Tiny budget: a few hundred bytes of sealed blocks at most.
    store.configure(smallConfig(1000, 600, 4), true);
    const std::uint32_t id = store.seriesId("w");
    SplitMix rng(3);
    for (int i = 0; i < 4000; ++i)
        store.record(id, static_cast<std::int64_t>(i) * 1000,
                     rng.uniform() * 1e6);

    EXPECT_GT(store.evictedBuckets(id), 0u);
    EXPECT_LE(store.memoryBytes(), 600u);
    // The oldest surviving data starts after bucket 0.
    const auto buckets = store.query(id, 0, 4'000'000);
    ASSERT_FALSE(buckets.empty());
    EXPECT_GT(buckets.front().startUs, 0);
    // Recent history is intact up to the open bucket.
    EXPECT_EQ(buckets.back().startUs, 3'999'000);
}

/**
 * Property: per-series eviction counters survive the vpm-ts-1 serialize
 * boundary exactly. Random series counts, sample counts and budgets —
 * whatever writeSnapshot() says was evicted must be what readSnapshot()
 * reports, series by series, and at least one trial must actually evict
 * (otherwise the property is vacuous).
 */
TEST(TimeSeriesStoreTest, EvictionCountsSurviveSnapshotRoundTrip)
{
    bool any_evicted = false;
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
        TimeSeriesStore store;
        SplitMix rng(0x5eed0000 + trial);
        const int series_count = 1 + static_cast<int>(rng.next() % 4);
        // Budgets from starved to roomy: some trials evict heavily,
        // some not at all — zero must round-trip too.
        const std::size_t budget = 300u + rng.next() % 2000u;
        store.configure(smallConfig(1000, budget, 4), true);

        std::vector<std::uint32_t> ids;
        for (int s = 0; s < series_count; ++s)
            ids.push_back(
                store.seriesId("series." + std::to_string(s)));
        const int samples = 500 + static_cast<int>(rng.next() % 3000);
        for (int i = 0; i < samples; ++i) {
            const std::uint32_t id = ids[rng.next() % ids.size()];
            store.record(id, static_cast<std::int64_t>(i) * 1000,
                         rng.uniform() * 1e6);
        }

        std::ostringstream out;
        store.writeSnapshot(out);
        std::istringstream in(out.str());
        TsSnapshot snapshot;
        std::string error;
        ASSERT_TRUE(readSnapshot(in, snapshot, &error)) << error;

        ASSERT_EQ(snapshot.series.size(), ids.size());
        for (std::size_t s = 0; s < ids.size(); ++s) {
            const TsSnapshot::Series *series =
                snapshot.find("series." + std::to_string(s));
            ASSERT_NE(series, nullptr);
            EXPECT_EQ(series->evicted, store.evictedBuckets(ids[s]))
                << "trial " << trial << " series " << s;
            if (series->evicted > 0)
                any_evicted = true;
        }
    }
    EXPECT_TRUE(any_evicted)
        << "no trial evicted anything; the property never bit";
}

TEST(TimeSeriesStoreTest, MergeRecorderMatchesDirectRecording)
{
    // One producer recording directly vs. two shard recorders folded in
    // shard order must yield identical query results.
    TimeSeriesStore direct;
    TimeSeriesStore sharded;
    direct.configure(smallConfig(), true);
    sharded.configure(smallConfig(), true);
    const std::uint32_t d = direct.seriesId("s");
    const std::uint32_t s = sharded.seriesId("s");

    SeriesRecorder shard0, shard1;
    const double values[6] = {5.0, 1.0, 9.0, 2.0, 7.0, 3.0};
    for (int i = 0; i < 6; ++i)
        direct.record(d, 100, values[i]);
    for (int i = 0; i < 3; ++i)
        shard0.record(s, values[i]);
    for (int i = 3; i < 6; ++i)
        shard1.record(s, values[i]);
    sharded.mergeRecorder(shard0, 100);
    sharded.mergeRecorder(shard1, 100);
    EXPECT_TRUE(shard0.empty()); // merge clears the recorder

    const auto a = direct.query(d, 0, 1000);
    const auto b = sharded.query(s, 0, 1000);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a[0].min, b[0].min);
    EXPECT_EQ(a[0].max, b[0].max);
    EXPECT_EQ(a[0].sum, b[0].sum);
    EXPECT_EQ(a[0].count, b[0].count);
    EXPECT_EQ(a[0].last, b[0].last);
}

TEST(TimeSeriesStoreTest, FlushAtSealsOnlyFinishedBuckets)
{
    TimeSeriesStore store;
    store.configure(smallConfig(), true);
    const std::uint32_t id = store.seriesId("w");
    store.record(id, 500, 1.0);
    TsBucket sealed;
    EXPECT_FALSE(store.lastSealed(id, sealed));
    store.flushAt(999); // bucket [0, 1000) not over yet
    EXPECT_FALSE(store.lastSealed(id, sealed));
    store.flushAt(1000);
    ASSERT_TRUE(store.lastSealed(id, sealed));
    EXPECT_EQ(sealed.startUs, 0);
}

// ------------------------------------------------------------ snapshots

TEST(TimeSeriesSnapshotTest, RoundTripsThroughTheBinaryFormat)
{
    TimeSeriesStore store;
    store.configure(smallConfig(1000, 1u << 20, 8), true);
    const std::uint32_t a = store.seriesId("alpha");
    const std::uint32_t b = store.seriesId("beta");
    SplitMix rng(11);
    for (int i = 0; i < 100; ++i) {
        store.record(a, static_cast<std::int64_t>(i) * 1000,
                     rng.uniform() * 100.0);
        if (i % 3 == 0)
            store.record(b, static_cast<std::int64_t>(i) * 1000,
                         -5.0 + rng.uniform());
    }

    std::ostringstream out;
    store.writeSnapshot(out);
    std::istringstream in(out.str());
    TsSnapshot snap;
    std::string error;
    ASSERT_TRUE(readSnapshot(in, snap, &error)) << error;

    EXPECT_EQ(snap.bucketUs, 1000);
    ASSERT_EQ(snap.series.size(), 2u);
    const TsSnapshot::Series *alpha = snap.find("alpha");
    ASSERT_NE(alpha, nullptr);
    const auto live = store.query(a, 0, 1'000'000);
    ASSERT_EQ(alpha->buckets.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        EXPECT_EQ(alpha->buckets[i].startUs, live[i].startUs);
        EXPECT_EQ(alpha->buckets[i].sum, live[i].sum);
        EXPECT_EQ(alpha->buckets[i].last, live[i].last);
    }
    EXPECT_NE(snap.find("beta"), nullptr);
    EXPECT_EQ(snap.find("gamma"), nullptr);
}

TEST(TimeSeriesSnapshotTest, BadMagicAndTruncationAreRejected)
{
    TsSnapshot snap;
    std::string error;
    std::istringstream junk("not a snapshot at all");
    EXPECT_FALSE(readSnapshot(junk, snap, &error));
    EXPECT_NE(error.find("magic"), std::string::npos);

    TimeSeriesStore store;
    store.configure(smallConfig(), true);
    store.record(store.seriesId("w"), 100, 1.0);
    std::ostringstream out;
    store.writeSnapshot(out);
    const std::string whole = out.str();
    std::istringstream cut(whole.substr(0, whole.size() / 2));
    EXPECT_FALSE(readSnapshot(cut, snap, &error));
}

TEST(TimeSeriesSnapshotTest, PrometheusTextListsLatestAggregates)
{
    TimeSeriesStore store;
    store.configure(smallConfig(), true);
    const std::uint32_t id = store.seriesId("cluster.power.watts");
    store.record(id, 100, 400.0);
    store.record(id, 200, 600.0);
    std::ostringstream out;
    store.writePrometheus(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("vpm_cluster_power_watts{agg=\"last\"} 600"),
              std::string::npos);
    EXPECT_NE(text.find("{agg=\"min\"} 400"), std::string::npos);
    EXPECT_NE(text.find("# TYPE vpm_cluster_power_watts gauge"),
              std::string::npos);
}

// ------------------------------------------------- thread determinism

/** Run the scenario with the store enabled; return the snapshot bytes. */
std::string
snapshotBytesAtThreads(unsigned threads)
{
    sim::setGlobalThreads(threads);
    TelemetryConfig tel_config;
    tel_config.enabled = true;
    global().configure(tel_config);

    mgmt::ScenarioConfig config;
    config.hostCount = 16;
    config.vmCount = 80; // > one VM shard, so the merge path runs
    config.duration = sim::SimTime::hours(3.0);
    config.seed = 99;
    config.manager = mgmt::makePolicy(mgmt::PolicyKind::PmS3);
    mgmt::runScenario(config);

    std::ostringstream out;
    global().timeseries().writeSnapshot(out);
    global().configure(TelemetryConfig{}); // disable + release
    sim::setGlobalThreads(1);
    return out.str();
}

TEST(TimeSeriesDeterminismTest, SnapshotBytesIdenticalAcrossThreadCounts)
{
    const std::string t1 = snapshotBytesAtThreads(1);
    const std::string t2 = snapshotBytesAtThreads(2);
    const std::string t8 = snapshotBytesAtThreads(8);
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
}

} // namespace
} // namespace vpm::telemetry
