#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "telemetry/profiler.hpp"

namespace vpm::telemetry {

namespace {

const std::string kEmpty;

/** Little-endian scalar writers/readers for the snapshot container. */
template <typename T>
void
putLe(std::ostream &out, T value)
{
    std::uint8_t buf[sizeof(T)];
    auto bits = static_cast<std::uint64_t>(value);
    for (std::size_t i = 0; i < sizeof(T); ++i)
        buf[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    out.write(reinterpret_cast<const char *>(buf), sizeof(T));
}

void
putLeDouble(std::ostream &out, double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    putLe<std::uint64_t>(out, bits);
}

template <typename T>
bool
getLe(std::istream &in, T &value)
{
    std::uint8_t buf[sizeof(T)];
    if (!in.read(reinterpret_cast<char *>(buf), sizeof(T)))
        return false;
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        bits |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    value = static_cast<T>(bits);
    return true;
}

bool
getLeDouble(std::istream &in, double &value)
{
    std::uint64_t bits;
    if (!getLe(in, bits))
        return false;
    std::memcpy(&value, &bits, sizeof(value));
    return true;
}

/** Zig-zag fold so small negative deltas stay small unsigned codes. */
std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/**
 * Gorilla timestamp prefix codes over the zig-zagged delta-of-delta.
 * '0'                 dod == 0 (the overwhelmingly common case: bucket
 *                     timestamps advance by exactly one interval)
 * '10'   + 7 bits     |code| < 2^7
 * '110'  + 12 bits    < 2^12
 * '1110' + 24 bits    < 2^24
 * '1111' + 64 bits    anything else
 */
void
writeDod(BitWriter &out, std::int64_t dod)
{
    const std::uint64_t code = zigzag(dod);
    if (code == 0) {
        out.writeBit(false);
    } else if (code < (1ull << 7)) {
        out.writeBits(0b10, 2);
        out.writeBits(code, 7);
    } else if (code < (1ull << 12)) {
        out.writeBits(0b110, 3);
        out.writeBits(code, 12);
    } else if (code < (1ull << 24)) {
        out.writeBits(0b1110, 4);
        out.writeBits(code, 24);
    } else {
        out.writeBits(0b1111, 4);
        out.writeBits(code, 64);
    }
}

std::int64_t
readDod(BitReader &in)
{
    if (!in.readBit())
        return 0;
    if (!in.readBit())
        return unzigzag(in.readBits(7));
    if (!in.readBit())
        return unzigzag(in.readBits(12));
    if (!in.readBit())
        return unzigzag(in.readBits(24));
    return unzigzag(in.readBits(64));
}

/** Sanitize a series name into a Prometheus metric name. */
std::string
promName(const std::string &name)
{
    std::string out = "vpm_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9');
        out += ok ? c : '_';
    }
    return out;
}

/** Deterministic %.17g formatting: shortest round-trippable double. */
std::string
promValue(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

constexpr char kMagic[8] = {'V', 'P', 'M', 'T', 'S', '0', '0', '1'};

} // namespace

// ---- Bit packing -----------------------------------------------------------

void
BitWriter::writeBit(bool bit)
{
    if (bitPos_ == 8) {
        bytes_.push_back(0);
        bitPos_ = 0;
    }
    if (bit)
        bytes_.back() |= static_cast<std::uint8_t>(1u << (7 - bitPos_));
    ++bitPos_;
}

void
BitWriter::writeBits(std::uint64_t value, int bits)
{
    for (int i = bits - 1; i >= 0; --i)
        writeBit((value >> i) & 1u);
}

void
BitWriter::clear()
{
    bytes_.clear();
    bitPos_ = 8;
}

bool
BitReader::readBit()
{
    if (pos_ >= sizeBits_)
        return false; // past the end: zeros (callers bound by count)
    const std::size_t byte = pos_ / 8;
    const int bit = static_cast<int>(pos_ % 8);
    ++pos_;
    return (data_[byte] >> (7 - bit)) & 1u;
}

std::uint64_t
BitReader::readBits(int bits)
{
    std::uint64_t out = 0;
    for (int i = 0; i < bits; ++i)
        out = (out << 1) | (readBit() ? 1u : 0u);
    return out;
}

void
XorChannel::write(BitWriter &out, double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    const std::uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
        out.writeBit(false);
        return;
    }
    out.writeBit(true);
    int leading = std::countl_zero(x);
    const int trailing = std::countr_zero(x);
    // Gorilla caps leading at 31 so it fits the 5-bit window field.
    leading = std::min(leading, 31);
    if (prevLeading >= 0 && leading >= prevLeading &&
        trailing >= prevTrailing) {
        // Reuse the previous window.
        out.writeBit(false);
        const int meaningful = 64 - prevLeading - prevTrailing;
        out.writeBits(x >> prevTrailing, meaningful);
        return;
    }
    out.writeBit(true);
    const int meaningful = 64 - leading - trailing;
    out.writeBits(static_cast<std::uint64_t>(leading), 5);
    // 6-bit length; 64 meaningful bits encode as 0 (meaningful >= 1 here).
    out.writeBits(static_cast<std::uint64_t>(meaningful & 63), 6);
    out.writeBits(x >> trailing, meaningful);
    prevLeading = leading;
    prevTrailing = trailing;
}

double
XorChannel::read(BitReader &in)
{
    if (in.readBit()) {
        if (in.readBit()) {
            prevLeading = static_cast<int>(in.readBits(5));
            int meaningful = static_cast<int>(in.readBits(6));
            if (meaningful == 0)
                meaningful = 64;
            prevTrailing = 64 - prevLeading - meaningful;
        }
        if (prevLeading < 0 || prevTrailing < 0) {
            corrupt = true;
            return 0.0;
        }
        const int meaningful = 64 - prevLeading - prevTrailing;
        const std::uint64_t x = in.readBits(meaningful) << prevTrailing;
        prev ^= x;
    }
    double value;
    std::memcpy(&value, &prev, sizeof(value));
    return value;
}

// ---- Block codec -----------------------------------------------------------

TsBlock
encodeBlock(const std::vector<TsBucket> &buckets)
{
    TsBlock block;
    if (buckets.empty())
        return block;
    block.firstBucketUs = buckets.front().startUs;
    block.lastBucketUs = buckets.back().startUs;
    block.bucketCount = static_cast<std::uint32_t>(buckets.size());

    BitWriter bits;
    XorChannel min, max, sum, count, last;
    // Timestamp arithmetic wraps modulo 2^64 on both sides, so any
    // int64 sequence round-trips and no decoded value can overflow.
    std::uint64_t prev_t = 0, prev_delta = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const TsBucket &b = buckets[i];
        const auto t = static_cast<std::uint64_t>(b.startUs);
        if (i == 0) {
            // First timestamp is in the header; establish the delta chain.
            prev_t = t;
        } else {
            const std::uint64_t delta = t - prev_t;
            writeDod(bits, static_cast<std::int64_t>(delta - prev_delta));
            prev_delta = delta;
            prev_t = t;
        }
        min.write(bits, b.min);
        max.write(bits, b.max);
        sum.write(bits, b.sum);
        count.write(bits, static_cast<double>(b.count));
        last.write(bits, b.last);
    }
    block.payload = bits.bytes();
    return block;
}

bool
decodeBlock(const TsBlock &block, std::vector<TsBucket> &out)
{
    BitReader bits(block.payload.data(), block.payload.size());
    XorChannel min, max, sum, count, last;
    auto t = static_cast<std::uint64_t>(block.firstBucketUs);
    std::uint64_t delta = 0;
    for (std::uint32_t i = 0; i < block.bucketCount; ++i) {
        if (i > 0) {
            delta += static_cast<std::uint64_t>(readDod(bits));
            t += delta;
        }
        TsBucket b;
        b.startUs = static_cast<std::int64_t>(t);
        b.min = min.read(bits);
        b.max = max.read(bits);
        b.sum = sum.read(bits);
        const double n = count.read(bits);
        b.last = last.read(bits);
        if (min.corrupt || max.corrupt || sum.corrupt || count.corrupt ||
            last.corrupt)
            return false;
        // A count is a whole number below 2^64; anything else (NaN,
        // negative, fractional, too large to convert) is corrupt.
        if (!(n >= 0.0 && n < 0x1p64) || n != std::floor(n))
            return false;
        if (bits.exhausted() && i + 1 < block.bucketCount)
            return false; // header promised more buckets than the payload has
        b.count = static_cast<std::uint64_t>(n);
        out.push_back(b);
    }
    return true;
}

// ---- SeriesRecorder --------------------------------------------------------

void
SeriesRecorder::record(std::uint32_t series, double value)
{
    const auto it = index_.find(series);
    if (it == index_.end()) {
        Partial partial;
        partial.series = series;
        partial.agg.min = partial.agg.max = partial.agg.last = value;
        partial.agg.sum = value;
        partial.agg.count = 1;
        index_.emplace(series, entries_.size());
        entries_.push_back(partial);
        return;
    }
    TsBucket &agg = entries_[it->second].agg;
    agg.min = std::min(agg.min, value);
    agg.max = std::max(agg.max, value);
    agg.sum += value;
    ++agg.count;
    agg.last = value;
}

// ---- TimeSeriesStore -------------------------------------------------------

void
TimeSeriesStore::configure(const TimeSeriesConfig &config, bool enabled)
{
    config_ = config;
    if (config_.bucketUs <= 0)
        config_.bucketUs = 1;
    if (config_.bucketsPerBlock == 0)
        config_.bucketsPerBlock = 1;
    enabled_ = enabled;
    reset();
}

std::uint32_t
TimeSeriesStore::seriesId(std::string_view name)
{
    const auto it = index_.find(std::string(name));
    if (it != index_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(series_.size());
    Series series;
    series.name = std::string(name);
    series_.push_back(std::move(series));
    index_.emplace(std::string(name), id);
    return id;
}

const std::string &
TimeSeriesStore::seriesName(std::uint32_t id) const
{
    if (id >= series_.size())
        return kEmpty;
    return series_[id].name;
}

void
TimeSeriesStore::roll(Series &s, std::int64_t start, double value)
{
    if (s.openActive)
        seal(s);
    s.open = TsBucket{};
    s.open.startUs = start;
    s.open.min = s.open.max = s.open.last = value;
    s.open.sum = value;
    s.open.count = 1;
    s.openActive = true;
}

void
TimeSeriesStore::mergeRecorder(SeriesRecorder &recorder, std::int64_t t_us)
{
    if (enabled_) {
        for (const SeriesRecorder::Partial &partial : recorder.entries_) {
            // Fold the shard partial as one multi-sample contribution:
            // identical to having record()ed each sample here, except the
            // partial pre-reduced min/max/sum/count (order-free or
            // shard-ordered by the caller contract).
            if (partial.series >= series_.size())
                continue;
            Series &s = series_[partial.series];
            const std::int64_t start =
                t_us - ((t_us % config_.bucketUs) + config_.bucketUs) %
                           config_.bucketUs;
            if (s.openActive && start > s.open.startUs)
                seal(s);
            if (!s.openActive) {
                s.open = partial.agg;
                s.open.startUs = start;
                s.openActive = true;
                continue;
            }
            s.open.min = std::min(s.open.min, partial.agg.min);
            s.open.max = std::max(s.open.max, partial.agg.max);
            s.open.sum += partial.agg.sum;
            s.open.count += partial.agg.count;
            s.open.last = partial.agg.last;
        }
    }
    recorder.clear();
    recorder.index_.clear();
}

void
TimeSeriesStore::flushAt(std::int64_t t_us)
{
    if (!enabled_)
        return;
    PROF_ZONE("telemetry.timeseries.flush");
    for (Series &s : series_) {
        if (s.openActive && s.open.startUs + config_.bucketUs <= t_us)
            seal(s);
    }
}

void
TimeSeriesStore::seal(Series &series)
{
    series.pendingSealed.push_back(series.open);
    series.openActive = false;
    if (series.pendingSealed.size() >= config_.bucketsPerBlock)
        packPending(series);
}

void
TimeSeriesStore::packPending(Series &series)
{
    if (series.pendingSealed.empty())
        return;
    TsBlock block = encodeBlock(series.pendingSealed);
    blockBytes_ += block.payload.size();
    series.blocks.push_back(std::move(block));
    series.pendingSealed.clear();
    while (blockBytes_ > config_.memoryBudgetBytes)
        evictOldest();
}

void
TimeSeriesStore::evictOldest()
{
    // The oldest block in the whole store goes first; ties break on the
    // lower series id, so eviction order is fully deterministic.
    Series *victim = nullptr;
    for (Series &s : series_) {
        if (s.blocks.empty())
            continue;
        if (!victim ||
            s.blocks.front().firstBucketUs <
                victim->blocks.front().firstBucketUs)
            victim = &s;
    }
    if (!victim)
        return;
    blockBytes_ -= victim->blocks.front().payload.size();
    victim->evicted += victim->blocks.front().bucketCount;
    victim->blocks.erase(victim->blocks.begin());
}

std::vector<TsBucket>
TimeSeriesStore::query(std::uint32_t series, std::int64_t t0_us,
                       std::int64_t t1_us) const
{
    std::vector<TsBucket> out;
    if (series >= series_.size())
        return out;
    const Series &s = series_[series];
    for (const TsBlock &block : s.blocks) {
        // Cheap reject on the header bounds before paying for a decode.
        if (block.firstBucketUs > t1_us ||
            block.lastBucketUs + config_.bucketUs <= t0_us)
            continue;
        std::vector<TsBucket> decoded;
        if (!decodeBlock(block, decoded))
            continue;
        for (const TsBucket &b : decoded) {
            if (b.startUs + config_.bucketUs > t0_us && b.startUs <= t1_us)
                out.push_back(b);
        }
    }
    for (const TsBucket &b : s.pendingSealed) {
        if (b.startUs + config_.bucketUs > t0_us && b.startUs <= t1_us)
            out.push_back(b);
    }
    if (s.openActive && s.open.startUs + config_.bucketUs > t0_us &&
        s.open.startUs <= t1_us)
        out.push_back(s.open);
    return out;
}

bool
TimeSeriesStore::lastSealed(std::uint32_t series, TsBucket &out) const
{
    if (series >= series_.size())
        return false;
    const Series &s = series_[series];
    if (!s.pendingSealed.empty()) {
        out = s.pendingSealed.back();
        return true;
    }
    if (s.blocks.empty())
        return false;
    std::vector<TsBucket> decoded;
    if (!decodeBlock(s.blocks.back(), decoded) || decoded.empty())
        return false;
    out = decoded.back();
    return true;
}

std::uint64_t
TimeSeriesStore::evictedBuckets(std::uint32_t series) const
{
    return series < series_.size() ? series_[series].evicted : 0;
}

void
TimeSeriesStore::writeSnapshot(std::ostream &out) const
{
    out.write(kMagic, sizeof(kMagic));
    putLe<std::uint64_t>(out, static_cast<std::uint64_t>(config_.bucketUs));
    putLe<std::uint32_t>(out, static_cast<std::uint32_t>(series_.size()));
    for (const Series &s : series_) {
        putLe<std::uint16_t>(out,
                             static_cast<std::uint16_t>(s.name.size()));
        out.write(s.name.data(),
                  static_cast<std::streamsize>(s.name.size()));
        putLe<std::uint64_t>(out, s.evicted);
        // Pending sealed buckets ship as one extra uncompressed-side block
        // so the snapshot always carries the full sealed history.
        const bool pending = !s.pendingSealed.empty();
        putLe<std::uint32_t>(
            out, static_cast<std::uint32_t>(s.blocks.size() +
                                            (pending ? 1 : 0)));
        const auto write_block = [&](const TsBlock &block) {
            putLe<std::uint64_t>(
                out, static_cast<std::uint64_t>(block.firstBucketUs));
            putLe<std::uint32_t>(out, block.bucketCount);
            putLe<std::uint32_t>(
                out, static_cast<std::uint32_t>(block.payload.size()));
            out.write(reinterpret_cast<const char *>(block.payload.data()),
                      static_cast<std::streamsize>(block.payload.size()));
        };
        for (const TsBlock &block : s.blocks)
            write_block(block);
        if (pending)
            write_block(encodeBlock(s.pendingSealed));
        putLe<std::uint8_t>(out, s.openActive ? 1 : 0);
        if (s.openActive) {
            putLe<std::uint64_t>(
                out, static_cast<std::uint64_t>(s.open.startUs));
            putLeDouble(out, s.open.min);
            putLeDouble(out, s.open.max);
            putLeDouble(out, s.open.sum);
            putLe<std::uint64_t>(out, s.open.count);
            putLeDouble(out, s.open.last);
        }
    }
}

TsSnapshot
TimeSeriesStore::snapshot() const
{
    TsSnapshot snap;
    snap.bucketUs = config_.bucketUs;
    snap.series.reserve(series_.size());
    for (std::uint32_t id = 0; id < series_.size(); ++id) {
        TsSnapshot::Series series;
        series.name = series_[id].name;
        series.evicted = series_[id].evicted;
        series.buckets =
            query(id, std::numeric_limits<std::int64_t>::min(),
                  std::numeric_limits<std::int64_t>::max());
        snap.series.push_back(std::move(series));
    }
    return snap;
}

void
TimeSeriesStore::writePrometheus(std::ostream &out) const
{
    for (std::uint32_t id = 0; id < series_.size(); ++id) {
        const Series &s = series_[id];
        TsBucket latest;
        bool have = false;
        if (s.openActive) {
            latest = s.open;
            have = true;
        } else {
            have = lastSealed(id, latest);
        }
        if (!have)
            continue;
        const std::string name = promName(s.name);
        out << "# TYPE " << name << " gauge\n";
        out << name << "{agg=\"last\"} " << promValue(latest.last) << '\n';
        out << name << "{agg=\"min\"} " << promValue(latest.min) << '\n';
        out << name << "{agg=\"max\"} " << promValue(latest.max) << '\n';
        out << name << "{agg=\"mean\"} " << promValue(latest.mean())
            << '\n';
        out << name << "{agg=\"count\"} "
            << promValue(static_cast<double>(latest.count)) << '\n';
    }
}

void
TimeSeriesStore::reset()
{
    for (Series &s : series_) {
        s.blocks.clear();
        s.pendingSealed.clear();
        s.openActive = false;
        s.evicted = 0;
    }
    blockBytes_ = 0;
    haveAlign_ = false; // bucketUs may have changed under the cache
}

// ---- Snapshot reader -------------------------------------------------------

const TsSnapshot::Series *
TsSnapshot::find(std::string_view name) const
{
    for (const Series &s : series)
        if (s.name == name)
            return &s;
    return nullptr;
}

bool
readSnapshot(std::istream &in, TsSnapshot &out, std::string *error)
{
    const auto fail = [&](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    char magic[8];
    if (!in.read(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return fail("not a vpm-ts-1 snapshot (bad magic)");
    std::uint64_t bucket_us;
    std::uint32_t series_count;
    if (!getLe(in, bucket_us) || !getLe(in, series_count))
        return fail("truncated header");
    out.bucketUs = static_cast<std::int64_t>(bucket_us);
    out.series.clear();
    for (std::uint32_t i = 0; i < series_count; ++i) {
        TsSnapshot::Series series;
        std::uint16_t name_len;
        if (!getLe(in, name_len))
            return fail("truncated series header");
        series.name.resize(name_len);
        if (name_len > 0 && !in.read(series.name.data(), name_len))
            return fail("truncated series name");
        std::uint32_t block_count;
        if (!getLe(in, series.evicted) || !getLe(in, block_count))
            return fail("truncated series header");
        for (std::uint32_t b = 0; b < block_count; ++b) {
            TsBlock block;
            std::uint64_t first;
            std::uint32_t payload_len;
            if (!getLe(in, first) || !getLe(in, block.bucketCount) ||
                !getLe(in, payload_len))
                return fail("truncated block header");
            block.firstBucketUs = static_cast<std::int64_t>(first);
            // Grow the payload only as bytes arrive: a corrupt length
            // field must not allocate gigabytes for a short file.
            constexpr std::uint32_t kChunk = 1u << 16;
            for (std::uint32_t got = 0; got < payload_len;) {
                const std::uint32_t n = std::min(kChunk, payload_len - got);
                block.payload.resize(got + n);
                if (!in.read(reinterpret_cast<char *>(block.payload.data()) +
                                 got,
                             n))
                    return fail("truncated block payload");
                got += n;
            }
            if (!decodeBlock(block, series.buckets))
                return fail("corrupt block payload");
        }
        std::uint8_t open_flag;
        if (!getLe(in, open_flag))
            return fail("truncated open-bucket flag");
        if (open_flag) {
            TsBucket open;
            std::uint64_t start;
            if (!getLe(in, start) || !getLeDouble(in, open.min) ||
                !getLeDouble(in, open.max) || !getLeDouble(in, open.sum) ||
                !getLe(in, open.count) || !getLeDouble(in, open.last))
                return fail("truncated open bucket");
            open.startUs = static_cast<std::int64_t>(start);
            series.buckets.push_back(open);
        }
        out.series.push_back(std::move(series));
    }
    return true;
}

} // namespace vpm::telemetry
