/**
 * @file
 * Bounded-memory downsampling time-series store (`vpm-ts-1`).
 *
 * The journal answers "what happened"; this store answers "how did it
 * *move*": selected metrics (cluster watts, SLA violation rate, hosts per
 * power/idle depth, queue depth, migration inflight, forecast error) are
 * folded into fixed-interval buckets of {min, max, sum, count, last} and
 * sealed buckets are compressed Gorilla-style — delta-of-delta bucket
 * timestamps plus XOR-packed aggregate channels — into bounded blocks.
 * When the configured memory budget is exceeded the oldest block in the
 * store is evicted (and counted), so a week-long replay-service run costs
 * the same memory as a ten-minute bench.
 *
 * Determinism contract (the PR 5 rule): everything observable — the
 * snapshot bytes, Prometheus text, query results — is a function of the
 * recorded samples alone, never of the thread count. Sharded producers
 * accumulate into per-shard `SeriesRecorder`s (plain struct updates, no
 * shared state) and the owner folds them with `mergeRecorders()` in shard
 * index order on the main thread, which reproduces the sequential
 * min/max/sum/count/last fold exactly.
 *
 * Snapshot format `vpm-ts-1` (little-endian, documented in DESIGN.md):
 *   "VPMTS001" magic, u64 bucket_us, u32 series_count, then per series:
 *   name (u16 len + bytes), u64 evicted_buckets, u32 block_count, blocks
 *   (u64 first_bucket_us, u32 bucket_count, u32 byte_len, payload), then
 *   the open bucket (u8 present, u64 start_us, 5 f64 aggregates + u64
 *   count). Readers and writers share this one implementation.
 */

#ifndef VPM_TELEMETRY_TIMESERIES_HPP
#define VPM_TELEMETRY_TIMESERIES_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace vpm::telemetry {

/** One sealed (or decoded) downsampling bucket. */
struct TsBucket
{
    std::int64_t startUs = 0; ///< bucket start (aligned to the interval)
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    std::uint64_t count = 0;
    double last = 0.0;

    double mean() const
    {
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
};

/** Store sizing knobs. */
struct TimeSeriesConfig
{
    /** Downsampling interval: samples within one interval fold into one
     *  bucket. */
    std::int64_t bucketUs = 60'000'000; // one simulated minute

    /** Hard budget for sealed compressed blocks across all series; the
     *  oldest block in the store is evicted when it would be exceeded. */
    std::size_t memoryBudgetBytes = 1u << 20;

    /** Sealed buckets per compressed block. Small enough that eviction
     *  granularity stays fine, large enough to amortize block headers. */
    std::size_t bucketsPerBlock = 128;
};

/** @name Gorilla-style bit packing (shared by store and snapshot reader)
 *  Layout per bucket: timestamp delta-of-delta (Gorilla prefix codes),
 *  then the five aggregate channels (min, max, sum, count-as-double,
 *  last), each XOR-compressed against the channel's previous value with
 *  the classic leading/meaningful-bits windows. */
///@{

/** Append-only bit stream writer (MSB-first within each byte). */
class BitWriter
{
  public:
    void writeBit(bool bit);
    void writeBits(std::uint64_t value, int bits); ///< high bits first
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::size_t sizeBytes() const { return bytes_.size(); }
    void clear();

  private:
    std::vector<std::uint8_t> bytes_;
    int bitPos_ = 8; ///< next free bit within bytes_.back(); 8 = full
};

/** Sequential reader over a BitWriter's bytes. */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::size_t size_bytes)
        : data_(data), sizeBits_(size_bytes * 8)
    {
    }

    bool readBit();
    std::uint64_t readBits(int bits);
    bool exhausted() const { return pos_ >= sizeBits_; }

  private:
    const std::uint8_t *data_;
    std::size_t sizeBits_;
    std::size_t pos_ = 0;
};

/** Per-channel XOR compressor state (prev value + bit windows). */
struct XorChannel
{
    std::uint64_t prev = 0;
    int prevLeading = -1; ///< -1: no window established yet
    int prevTrailing = 0;
    /** Set by read() on a window no writer can produce (reused before
     *  one exists, or wider than 64 bits): the payload is corrupt. */
    bool corrupt = false;

    void write(BitWriter &out, double value);
    double read(BitReader &in);
};

///@}

/** One compressed run of consecutive sealed buckets. */
struct TsBlock
{
    std::int64_t firstBucketUs = 0;
    std::int64_t lastBucketUs = 0; ///< query prune only; not serialized
    std::uint32_t bucketCount = 0;
    std::vector<std::uint8_t> payload;

    std::size_t sizeBytes() const
    {
        return payload.size() + sizeof(TsBlock);
    }
};

/** Encode @p buckets (ascending startUs) into one block payload. */
TsBlock encodeBlock(const std::vector<TsBucket> &buckets);

/** Decode a block back into buckets. @return false on a corrupt payload
 *  (fewer decodable buckets than the header promises). */
bool decodeBlock(const TsBlock &block, std::vector<TsBucket> &out);

/**
 * Thread-private accumulator for one shard of a sharded producer loop.
 * Records fold into per-series open buckets keyed by series id; nothing
 * here touches shared state. The owning store folds recorders in shard
 * index order (mergeRecorders), reproducing the sequential fold exactly:
 * min/max/count are order-free, sum adds in shard order, and `last`
 * resolves to the highest shard's latest sample — the same value the
 * one-thread sweep would have left behind.
 */
class SeriesRecorder
{
  public:
    void record(std::uint32_t series, double value);
    bool empty() const { return entries_.empty(); }
    void clear() { entries_.clear(); }

  private:
    friend class TimeSeriesStore;
    struct Partial
    {
        std::uint32_t series;
        TsBucket agg; ///< startUs unused; times come from the fold point
    };
    /** Dense by first-touch order within the shard; series ids are
     *  interned on the main thread so touch order is deterministic. */
    std::vector<Partial> entries_;
    std::unordered_map<std::uint32_t, std::size_t> index_;
};

struct TsSnapshot;

/** The store: named series of compressed bucket history. */
class TimeSeriesStore
{
  public:
    TimeSeriesStore() = default;

    TimeSeriesStore(const TimeSeriesStore &) = delete;
    TimeSeriesStore &operator=(const TimeSeriesStore &) = delete;

    /** (Re)initialize. Enabling resets all history; disabling releases
     *  every block. Series name registrations survive re-configuration so
     *  cached ids stay valid. */
    void configure(const TimeSeriesConfig &config, bool enabled);

    bool enabled() const { return enabled_; }
    const TimeSeriesConfig &config() const { return config_; }

    /**
     * Find-or-create the series named @p name.
     * @return a stable series id (index into series order). Ids are valid
     *         for the store's lifetime, including across configure().
     */
    std::uint32_t seriesId(std::string_view name);

    /** Number of registered series. */
    std::size_t seriesCount() const { return series_.size(); }

    /** Name of a series id ("" when out of range). */
    const std::string &seriesName(std::uint32_t id) const;

    /**
     * Fold one sample into the series' open bucket at @p t_us. Buckets
     * seal lazily: a sample landing past the open bucket's interval first
     * seals it into the block writer. Samples are expected in
     * non-decreasing time order per series; a stale sample (before the
     * open bucket) folds into the open bucket rather than resurrecting a
     * sealed one. No-op when disabled. Defined inline below: producers
     * call this once per series per tick, so the fold-into-open-bucket
     * fast path is kept call-free.
     */
    void record(std::uint32_t series, std::int64_t t_us, double value);

    /** record() on every series touched by @p recorder, folding shard
     *  partials at time @p t_us, then clear the recorder. Call once per
     *  shard in shard index order, on the owning thread. */
    void mergeRecorder(SeriesRecorder &recorder, std::int64_t t_us);

    /**
     * Seal every open bucket whose interval ended at or before @p t_us.
     * Called by the owner at flush points (every telemetry sample tick);
     * also the moment watchdog rules are evaluated against fresh buckets.
     */
    void flushAt(std::int64_t t_us);

    /** @name Introspection / query */
    ///@{
    /** Sealed + open buckets of @p series intersecting [t0, t1]. */
    std::vector<TsBucket> query(std::uint32_t series, std::int64_t t0_us,
                                std::int64_t t1_us) const;

    /** The most recently sealed bucket, if any. */
    bool lastSealed(std::uint32_t series, TsBucket &out) const;

    /** Buckets lost to eviction on @p series. */
    std::uint64_t evictedBuckets(std::uint32_t series) const;

    /** Total sealed-block payload bytes currently held. */
    std::size_t memoryBytes() const { return blockBytes_; }
    ///@}

    /** @name Snapshots */
    ///@{
    /** Write the whole store as a `vpm-ts-1` binary snapshot. */
    void writeSnapshot(std::ostream &out) const;

    /** The whole store decoded in memory: the same series, buckets and
     *  eviction counts readSnapshot() recovers from writeSnapshot(). */
    TsSnapshot snapshot() const;

    /** Write the latest aggregates per series in Prometheus text
     *  exposition format (one gauge per aggregate channel). */
    void writePrometheus(std::ostream &out) const;
    ///@}

    /** Drop all buckets/blocks; keep series registrations. */
    void reset();

  private:
    struct Series
    {
        std::string name;
        std::vector<TsBlock> blocks;
        std::vector<TsBucket> pendingSealed; ///< sealed, not yet blocked
        TsBucket open;
        bool openActive = false;
        std::uint64_t evicted = 0;
    };

    void seal(Series &series);
    void packPending(Series &series);
    void evictOldest();

    /** Cold half of record(): seal the finished open bucket (if any) and
     *  start a fresh one at @p start with @p value as its first sample. */
    void roll(Series &series, std::int64_t start, double value);

    bool enabled_ = false;
    TimeSeriesConfig config_;
    std::vector<Series> series_;
    std::unordered_map<std::string, std::uint32_t> index_;
    std::size_t blockBytes_ = 0;

    /** One-entry bucket-alignment cache: a sampling pass records many
     *  series at the same timestamp, so the int64 divisions in the
     *  alignment are paid once per distinct t_us, not once per record. */
    std::int64_t lastAlignT_ = 0;
    std::int64_t lastAlignStart_ = 0;
    bool haveAlign_ = false;
};

inline void
TimeSeriesStore::record(std::uint32_t series, std::int64_t t_us,
                        double value)
{
    if (!enabled_ || series >= series_.size())
        return;
    Series &s = series_[series];
    if (!haveAlign_ || t_us != lastAlignT_) {
        lastAlignStart_ =
            t_us - ((t_us % config_.bucketUs) + config_.bucketUs) %
                       config_.bucketUs;
        lastAlignT_ = t_us;
        haveAlign_ = true;
    }
    const std::int64_t start = lastAlignStart_;
    // Fast path: fold into the live bucket (stale samples fold too — a
    // sample from before the open bucket must not resurrect sealed ones).
    if (s.openActive && start <= s.open.startUs) {
        s.open.min = std::min(s.open.min, value);
        s.open.max = std::max(s.open.max, value);
        s.open.sum += value;
        ++s.open.count;
        s.open.last = value;
        return;
    }
    roll(s, start, value);
}

/** Parsed form of a `vpm-ts-1` snapshot (what vpm_top works from). */
struct TsSnapshot
{
    std::int64_t bucketUs = 0;
    struct Series
    {
        std::string name;
        std::uint64_t evicted = 0;
        std::vector<TsBucket> buckets; ///< decoded, ascending, incl. open
    };
    std::vector<Series> series;

    const Series *find(std::string_view name) const;
};

/** Parse a snapshot stream. @return false (with @p error set when
 *  non-null) on bad magic or a truncated/corrupt payload. */
bool readSnapshot(std::istream &in, TsSnapshot &out,
                  std::string *error = nullptr);

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_TIMESERIES_HPP
