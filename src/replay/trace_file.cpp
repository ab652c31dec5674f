#include "replay/trace_file.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <utility>

#include "simcore/logging.hpp"
#include "simcore/random.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define VPM_TRACE_HAVE_PREAD 1
#else
#define VPM_TRACE_HAVE_PREAD 0
#endif

namespace vpm::replay {

namespace {

constexpr char kMagic[8] = {'v', 'p', 'm', 't', 'r', 'c', '1', '\n'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kChunkHeaderBytes = 32;
constexpr std::size_t kIndexEntryBytes = 24;
constexpr std::int64_t kOpenEnd =
    std::numeric_limits<std::int64_t>::max();

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

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

/** Decode one varint; returns false on truncation/overflow. */
bool
getVarint(const std::uint8_t *data, std::size_t n, std::size_t &pos,
          std::uint64_t &out)
{
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (pos >= n)
            return false;
        const std::uint8_t byte = data[pos++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            out = v;
            return true;
        }
    }
    return false;
}

template <typename T>
void
putRaw(std::ostream &out, T v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
T
getRaw(const std::uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

} // namespace

// ---------------------------------------------------------------- writer

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 std::uint32_t vm_count,
                                 std::uint32_t quantum,
                                 std::uint32_t samples_per_chunk)
    : out_(path, std::ios::binary | std::ios::trunc), vmCount_(vm_count),
      quantum_(quantum), samplesPerChunk_(samples_per_chunk),
      index_(vm_count)
{
    if (vm_count == 0)
        sim::fatal("TraceFileWriter: need at least one VM");
    if (quantum == 0)
        sim::fatal("TraceFileWriter: quantum must be >= 1");
    if (samples_per_chunk < 2)
        sim::fatal("TraceFileWriter: samples per chunk must be >= 2");
    // Placeholder header; finish() seeks back and patches the real one.
    out_.write(kMagic, sizeof(kMagic));
    putRaw<std::uint32_t>(out_, kVersion);
    putRaw<std::uint32_t>(out_, vmCount_);
    putRaw<std::uint32_t>(out_, quantum_);
    putRaw<std::uint32_t>(out_, samplesPerChunk_);
    putRaw<std::uint64_t>(out_, 0); // index_offset
    putRaw<std::uint64_t>(out_, 0); // total_samples
    offset_ = kHeaderBytes;
}

void
TraceFileWriter::flushChunk(const PendingChunk &chunk,
                            std::int64_t end_ts_us)
{
    // Encode the payload behind room for the header, fill the header in
    // once the payload size is known, and emit both with one write. The
    // buffer keeps its capacity across chunks.
    chunkBytes_.resize(kChunkHeaderBytes);
    putVarint(chunkBytes_, chunk.level[0]);
    for (std::size_t i = 1; i < chunk.ts.size(); ++i) {
        putVarint(chunkBytes_,
                  static_cast<std::uint64_t>(chunk.ts[i] - chunk.ts[i - 1]));
        putVarint(chunkBytes_,
                  zigzag(static_cast<std::int64_t>(chunk.level[i]) -
                         static_cast<std::int64_t>(chunk.level[i - 1])));
    }
    const std::size_t payload_bytes = chunkBytes_.size() - kChunkHeaderBytes;

    std::uint8_t *header = chunkBytes_.data();
    const std::uint32_t words[4] = {
        static_cast<std::uint32_t>(currentVm_),
        static_cast<std::uint32_t>(chunk.ts.size()),
        static_cast<std::uint32_t>(payload_bytes), 0};
    const std::int64_t span[2] = {chunk.ts[0], end_ts_us};
    std::memcpy(header, words, sizeof(words));
    std::memcpy(header + sizeof(words), span, sizeof(span));

    IndexEntry &entry = index_[static_cast<std::size_t>(currentVm_)];
    if (entry.chunkCount == 0)
        entry.firstChunkOffset = offset_;
    out_.write(reinterpret_cast<const char *>(chunkBytes_.data()),
               static_cast<std::streamsize>(chunkBytes_.size()));
    offset_ += chunkBytes_.size();

    ++entry.chunkCount;
    entry.totalSamples += static_cast<std::uint32_t>(chunk.ts.size());
    entry.byteLen += chunkBytes_.size();
    totalSamples_ += chunk.ts.size();
}

void
TraceFileWriter::PendingChunk::clear()
{
    ts.clear();
    level.clear();
}

void
TraceFileWriter::finishCurrentVm()
{
    if (currentVm_ < 0)
        return;
    // The held chunk's span ends where the open chunk begins; the last
    // chunk of the VM is open-ended (its final level holds forever).
    if (haveHeld_) {
        flushChunk(held_, open_.ts.empty() ? kOpenEnd : open_.ts.front());
        held_.clear();
        haveHeld_ = false;
    }
    if (!open_.ts.empty()) {
        flushChunk(open_, kOpenEnd);
        open_.clear();
    }
}

void
TraceFileWriter::append(std::uint32_t vm, std::int64_t ts_us,
                        double utilization)
{
    if (finished_)
        sim::panic("TraceFileWriter::append after finish");
    if (vm >= vmCount_)
        sim::fatal("TraceFileWriter: vm %u out of range (%u)", vm,
                   vmCount_);
    if (static_cast<std::int64_t>(vm) < currentVm_)
        sim::fatal("TraceFileWriter: vm ids must be nondecreasing "
                   "(%u after %lld)", vm,
                   static_cast<long long>(currentVm_));

    if (static_cast<std::int64_t>(vm) != currentVm_) {
        finishCurrentVm();
        currentVm_ = static_cast<std::int64_t>(vm);
        haveLast_ = false;
    }
    if (haveLast_ && ts_us <= lastTs_)
        sim::fatal("TraceFileWriter: timestamps must be strictly "
                   "increasing within a VM (vm %u, %lld after %lld)", vm,
                   static_cast<long long>(ts_us),
                   static_cast<long long>(lastTs_));

    const double clamped = std::clamp(utilization, 0.0, 1.0);
    const std::uint32_t level = static_cast<std::uint32_t>(
        std::lround(clamped * static_cast<double>(quantum_)));

    // Run-length merge: an unchanged level just extends the prior span.
    if (haveLast_ && level == lastLevel_) {
        lastTs_ = ts_us;
        return;
    }
    haveLast_ = true;
    lastTs_ = ts_us;
    lastLevel_ = level;

    open_.ts.push_back(ts_us);
    open_.level.push_back(level);
    if (open_.ts.size() >= samplesPerChunk_) {
        if (haveHeld_)
            flushChunk(held_, open_.ts.front());
        // Swap, not move: open_ inherits the flushed chunk's capacity.
        std::swap(held_, open_);
        open_.clear();
        haveHeld_ = true;
    }
}

bool
TraceFileWriter::finish(std::string *error)
{
    if (finished_)
        sim::panic("TraceFileWriter::finish called twice");
    finished_ = true;
    finishCurrentVm();

    const std::uint64_t index_offset = offset_;
    for (const IndexEntry &entry : index_) {
        putRaw<std::uint64_t>(out_, entry.firstChunkOffset);
        putRaw<std::uint64_t>(out_, entry.byteLen);
        putRaw<std::uint32_t>(out_, entry.chunkCount);
        putRaw<std::uint32_t>(out_, entry.totalSamples);
    }
    out_.seekp(static_cast<std::streamoff>(sizeof(kMagic)) + 16);
    putRaw<std::uint64_t>(out_, index_offset);
    putRaw<std::uint64_t>(out_, totalSamples_);
    out_.flush();
    if (!out_.good()) {
        if (error != nullptr)
            *error = "trace write failed (disk full or unwritable path?)";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------- reader

namespace detail {

/** One decoded breakpoint: @c util holds from @c ts to the next point. */
struct Point
{
    std::int64_t ts;
    double util;
};

/** A chunk's points end in a sentinel {end_ts, kSentinelUtil}; levels
 *  are never negative, so the sentinel is told apart by its level. */
constexpr double kSentinelUtil = -1.0;

struct ChunkHeader
{
    std::uint32_t vm;
    std::uint32_t chunkIdx;
    std::uint64_t nextOffset; ///< file offset of the next chunk
};

/**
 * A decoded chunk is one array of 16-byte cells: the header, then its
 * sample_count points, then the sentinel. One allocation, so a cursor
 * step reads one point and, with its successor, usually one cache line.
 * Immutable once built; shared so a cache eviction never invalidates a
 * cursor that still points at it.
 */
union ChunkCell
{
    ChunkHeader header;
    Point point;
};
static_assert(sizeof(ChunkCell) == 16);
using DecodedChunk = std::shared_ptr<const ChunkCell[]>;

class TraceFileImpl : public std::enable_shared_from_this<TraceFileImpl>
{
  public:
    TraceFileInfo info;
    struct VmMeta
    {
        std::uint64_t firstChunkOffset = 0;
        std::uint64_t byteLen = 0;
        std::uint32_t chunkCount = 0;
        std::uint32_t totalSamples = 0;
    };
    std::vector<VmMeta> vms;
    std::uint64_t indexOffset = 0;
    std::size_t slotCount = 0;

    ~TraceFileImpl()
    {
#if VPM_TRACE_HAVE_PREAD
        if (fd_ >= 0)
            ::close(fd_);
#endif
    }

    bool openFile(const std::string &path, std::string *error);
    /** Read up to @p n bytes at @p offset; @return the count read (short
     *  only at end of file or on an I/O error). */
    std::size_t readUpTo(std::uint64_t offset, void *dst, std::size_t n);
    bool readAt(std::uint64_t offset, void *dst, std::size_t n)
    {
        return readUpTo(offset, dst, n) == n;
    }

    /**
     * The decoded chunk (vm, chunk_idx) whose header lives at @p offset.
     * Served from the direct-mapped cache when present; loaded (and
     * cached, evicting the slot's previous occupant) otherwise. Fatal on
     * a corrupt chunk — by open()-validation this only happens when the
     * file changed underneath a running simulation.
     */
    DecodedChunk chunkAt(std::uint32_t vm, std::uint32_t chunk_idx,
                         std::uint64_t offset);

    std::uint64_t loads() const
    {
        return loads_.load(std::memory_order_relaxed);
    }

    void configureCache(std::size_t window_bytes)
    {
        // A decoded breakpoint costs 16 bytes (i64 ts + double util);
        // size the slot count so a full cache stays under the budget.
        const std::size_t per_chunk =
            static_cast<std::size_t>(info.samplesPerChunk) * 16;
        slotCount = std::max<std::size_t>(
            8, per_chunk > 0 ? window_bytes / per_chunk : 8);
        slots_ = std::vector<DecodedChunk>(slotCount);

        // The longest payload a full chunk can encode: the first level,
        // then a 10-byte time delta and a level delta per later sample.
        const auto varint_len = [](std::uint64_t v) {
            std::size_t n = 1;
            for (; v >= 0x80; v >>= 7)
                ++n;
            return n;
        };
        maxChunkBytes_ =
            kChunkHeaderBytes + varint_len(info.quantum) +
            (info.samplesPerChunk - 1u) *
                (10 + varint_len(2ull * info.quantum));
    }

  private:
    static constexpr std::size_t kStripes = 64;

    std::vector<DecodedChunk> slots_;
    std::mutex stripes_[kStripes];
    std::atomic<std::uint64_t> loads_{0};
    /** Header plus the longest valid payload: one read covers a chunk. */
    std::size_t maxChunkBytes_ = 0;

#if VPM_TRACE_HAVE_PREAD
    int fd_ = -1;
#else
    std::ifstream stream_;
    std::mutex streamMutex_;
#endif
};

bool
TraceFileImpl::openFile(const std::string &path, std::string *error)
{
#if VPM_TRACE_HAVE_PREAD
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) {
        if (error != nullptr)
            *error = "cannot open '" + path + "'";
        return false;
    }
#else
    stream_.open(path, std::ios::binary);
    if (!stream_.good()) {
        if (error != nullptr)
            *error = "cannot open '" + path + "'";
        return false;
    }
#endif
    return true;
}

std::size_t
TraceFileImpl::readUpTo(std::uint64_t offset, void *dst, std::size_t n)
{
#if VPM_TRACE_HAVE_PREAD
    std::size_t done = 0;
    while (done < n) {
        const ssize_t got =
            ::pread(fd_, static_cast<char *>(dst) + done, n - done,
                    static_cast<off_t>(offset + done));
        if (got <= 0)
            break;
        done += static_cast<std::size_t>(got);
    }
    return done;
#else
    std::lock_guard<std::mutex> lock(streamMutex_);
    stream_.clear();
    stream_.seekg(static_cast<std::streamoff>(offset));
    stream_.read(static_cast<char *>(dst),
                 static_cast<std::streamsize>(n));
    return static_cast<std::size_t>(stream_.gcount());
#endif
}

DecodedChunk
TraceFileImpl::chunkAt(std::uint32_t vm, std::uint32_t chunk_idx,
                       std::uint64_t offset)
{
    const std::size_t slot_idx = static_cast<std::size_t>(
        sim::hashMix(vm, chunk_idx) % slotCount);
    std::mutex &stripe = stripes_[slot_idx % kStripes];
    {
        std::lock_guard<std::mutex> lock(stripe);
        const DecodedChunk &cached = slots_[slot_idx];
        if (cached && cached[0].header.vm == vm &&
            cached[0].header.chunkIdx == chunk_idx)
            return cached;
    }

    // One read for the header and the longest payload a valid chunk can
    // have, stopping at the index; a second only for a larger payload.
    thread_local std::vector<std::uint8_t> buf;
    const std::size_t want =
        offset < indexOffset
            ? std::clamp<std::uint64_t>(indexOffset - offset,
                                        kChunkHeaderBytes, maxChunkBytes_)
            : kChunkHeaderBytes;
    if (buf.size() < want)
        buf.resize(want);
    const std::size_t got = readUpTo(offset, buf.data(), want);
    if (got < kChunkHeaderBytes)
        sim::fatal("vpm-trace-1: short read at chunk header (vm %u #%u)",
                   vm, chunk_idx);
    const std::uint32_t header_vm = getRaw<std::uint32_t>(buf.data());
    const std::uint32_t count = getRaw<std::uint32_t>(buf.data() + 4);
    const std::uint32_t payload_bytes =
        getRaw<std::uint32_t>(buf.data() + 8);
    const std::int64_t first_ts = getRaw<std::int64_t>(buf.data() + 16);
    const std::int64_t end_ts = getRaw<std::int64_t>(buf.data() + 24);
    if (header_vm != vm || count == 0 ||
        count > info.samplesPerChunk)
        sim::fatal("vpm-trace-1: corrupt chunk header (vm %u #%u)", vm,
                   chunk_idx);

    const std::size_t chunk_bytes = kChunkHeaderBytes + payload_bytes;
    if (chunk_bytes > got) {
        buf.resize(chunk_bytes);
        if (!readAt(offset + got, buf.data() + got, chunk_bytes - got))
            sim::fatal("vpm-trace-1: short read at chunk payload "
                       "(vm %u #%u)", vm, chunk_idx);
    }
    const std::uint8_t *payload = buf.data() + kChunkHeaderBytes;

    std::shared_ptr<ChunkCell[]> chunk =
        std::make_shared_for_overwrite<ChunkCell[]>(count + 2u);
    chunk[0].header = {vm, chunk_idx, offset + chunk_bytes};
    ChunkCell *pts = chunk.get() + 1;

    std::size_t pos = 0;
    std::uint64_t raw = 0;
    if (!getVarint(payload, payload_bytes, pos, raw) || raw > info.quantum)
        sim::fatal("vpm-trace-1: corrupt payload (vm %u #%u)", vm,
                   chunk_idx);
    std::int64_t level = static_cast<std::int64_t>(raw);
    std::int64_t t = first_ts;
    const double denom = static_cast<double>(info.quantum);
    pts[0].point = {t, static_cast<double>(level) / denom};
    for (std::uint32_t i = 1; i < count; ++i) {
        std::uint64_t dt = 0, dl = 0;
        if (!getVarint(payload, payload_bytes, pos, dt) ||
            !getVarint(payload, payload_bytes, pos, dl))
            sim::fatal("vpm-trace-1: corrupt payload (vm %u #%u)", vm,
                       chunk_idx);
        t += static_cast<std::int64_t>(dt);
        level += unzigzag(dl);
        if (dt == 0 || level < 0 ||
            level > static_cast<std::int64_t>(info.quantum))
            sim::fatal("vpm-trace-1: corrupt payload (vm %u #%u)", vm,
                       chunk_idx);
        pts[i].point = {t, static_cast<double>(level) / denom};
    }
    if (pos != payload_bytes)
        sim::fatal("vpm-trace-1: trailing payload bytes (vm %u #%u)", vm,
                   chunk_idx);
    pts[count].point = {end_ts, kSentinelUtil};
    loads_.fetch_add(1, std::memory_order_relaxed);

    std::lock_guard<std::mutex> lock(stripe);
    slots_[slot_idx] = chunk;
    return chunk;
}

/**
 * One VM's series as a DemandTrace. The cursor is mutable under the
 * owner-shard rule (a VM is only sampled by the shard that owns it, and
 * every VM gets its own view object), mirroring the contract the rest of
 * the evaluation engine already relies on.
 */
class StreamedVmTrace final : public workload::DemandTrace
{
  public:
    StreamedVmTrace(std::shared_ptr<const TraceFileImpl> impl,
                    std::uint32_t vm)
        : impl_(std::move(impl)), vm_(vm)
    {
    }

    double utilizationAt(sim::SimTime t) const override
    {
        return spanAt(t).utilization;
    }

    workload::DemandSpan spanAt(sim::SimTime t) const override
    {
        // chunkAt is const-observable but mutates the shared cache; the
        // impl owns that synchronization.
        auto *impl = const_cast<TraceFileImpl *>(impl_.get());
        const TraceFileImpl::VmMeta &meta = impl->vms[vm_];
        const std::int64_t us = t.micros();
        if (!chunk_) {
            if (meta.chunkCount == 0)
                return {0.0, sim::SimTime::max()};
            chunk_ = impl->chunkAt(vm_, 0, meta.firstChunkOffset);
            cursor_ = 0;
        }

        // The chunk's points, cell 1 onward.
        const ChunkCell *pts = chunk_.get() + 1;
        if (us < pts[cursor_].point.ts) {
            // Backward seek (a what-if branch replaying from a checkpoint
            // earlier than this cursor): search the points already
            // passed, or rewind to the first chunk if t precedes this one.
            if (us < pts[0].point.ts && chunk_[0].header.chunkIdx > 0) {
                chunk_ = impl->chunkAt(vm_, 0, meta.firstChunkOffset);
                pts = chunk_.get() + 1;
                cursor_ = 0;
            } else {
                const ChunkCell *it = std::upper_bound(
                    pts, pts + cursor_, us,
                    [](std::int64_t v, const ChunkCell &c) {
                        return v < c.point.ts;
                    });
                cursor_ = it == pts
                              ? 0
                              : static_cast<std::uint32_t>(it - pts - 1);
            }
        }
        // Forward: step through the points, then across chunk ends. Before
        // the first breakpoint the cursor stays on point 0, whose level
        // applies until its successor (StepTrace semantics).
        while (us >= pts[cursor_ + 1].point.ts) {
            const Point &next = pts[cursor_ + 1].point;
            if (next.util != kSentinelUtil) {
                ++cursor_;
                continue;
            }
            if (next.ts == kOpenEnd)
                break;
            const ChunkHeader &header = chunk_[0].header;
            chunk_ = impl->chunkAt(vm_, header.chunkIdx + 1,
                                   header.nextOffset);
            pts = chunk_.get() + 1;
            cursor_ = 0;
        }
        const std::int64_t until = pts[cursor_ + 1].point.ts;
        return {pts[cursor_].point.util,
                until == kOpenEnd ? sim::SimTime::max()
                                  : sim::SimTime::micros(until)};
    }

  private:
    std::shared_ptr<const TraceFileImpl> impl_;
    std::uint32_t vm_;
    /** Index into chunk_'s points of the breakpoint last returned. */
    mutable std::uint32_t cursor_ = 0;
    mutable DecodedChunk chunk_;
};

// A fleet holds one view per VM (fleetbench governor_fleet: 200k views
// over 16 series), so every byte here is paid per VM.
static_assert(sizeof(StreamedVmTrace) <= 48);

} // namespace detail

TraceFile::TraceFile(std::shared_ptr<detail::TraceFileImpl> impl)
    : impl_(std::move(impl))
{
}

TraceFile::~TraceFile() = default;

std::shared_ptr<TraceFile>
TraceFile::open(const std::string &path, std::size_t window_bytes,
                std::string *error)
{
    auto impl = std::make_shared<detail::TraceFileImpl>();
    if (!impl->openFile(path, error))
        return nullptr;

    std::uint8_t header[kHeaderBytes];
    if (!impl->readAt(0, header, sizeof(header))) {
        if (error != nullptr)
            *error = "'" + path + "': too short for a vpm-trace-1 header";
        return nullptr;
    }
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
        if (error != nullptr)
            *error = "'" + path + "': not a vpm-trace-1 file (bad magic)";
        return nullptr;
    }
    if (getRaw<std::uint32_t>(header + 8) != kVersion) {
        if (error != nullptr)
            *error = "'" + path + "': unsupported vpm-trace-1 version";
        return nullptr;
    }
    impl->info.vmCount = getRaw<std::uint32_t>(header + 12);
    impl->info.quantum = getRaw<std::uint32_t>(header + 16);
    impl->info.samplesPerChunk = getRaw<std::uint32_t>(header + 20);
    const std::uint64_t index_offset = getRaw<std::uint64_t>(header + 24);
    impl->indexOffset = index_offset;
    impl->info.totalSamples = getRaw<std::uint64_t>(header + 32);
    if (impl->info.vmCount == 0 || impl->info.quantum == 0 ||
        impl->info.samplesPerChunk < 2 || index_offset < kHeaderBytes) {
        if (error != nullptr)
            *error = "'" + path + "': corrupt vpm-trace-1 header";
        return nullptr;
    }

    impl->vms.resize(impl->info.vmCount);
    std::vector<std::uint8_t> raw(impl->info.vmCount * kIndexEntryBytes);
    if (!impl->readAt(index_offset, raw.data(), raw.size())) {
        if (error != nullptr)
            *error = "'" + path + "': truncated vpm-trace-1 index";
        return nullptr;
    }
    std::uint64_t sum = 0;
    for (std::uint32_t v = 0; v < impl->info.vmCount; ++v) {
        const std::uint8_t *p = raw.data() + v * kIndexEntryBytes;
        detail::TraceFileImpl::VmMeta &meta = impl->vms[v];
        meta.firstChunkOffset = getRaw<std::uint64_t>(p);
        meta.byteLen = getRaw<std::uint64_t>(p + 8);
        meta.chunkCount = getRaw<std::uint32_t>(p + 16);
        meta.totalSamples = getRaw<std::uint32_t>(p + 20);
        sum += meta.totalSamples;
        if (meta.chunkCount > 0 &&
            (meta.firstChunkOffset < kHeaderBytes ||
             meta.firstChunkOffset + meta.byteLen > index_offset)) {
            if (error != nullptr)
                *error = "'" + path + "': vpm-trace-1 index entry out of "
                         "bounds";
            return nullptr;
        }
    }
    if (sum != impl->info.totalSamples) {
        if (error != nullptr)
            *error = "'" + path + "': vpm-trace-1 sample counts "
                     "inconsistent";
        return nullptr;
    }

    impl->configureCache(window_bytes);
    return std::shared_ptr<TraceFile>(new TraceFile(std::move(impl)));
}

const TraceFileInfo &
TraceFile::info() const
{
    return impl_->info;
}

std::uint64_t
TraceFile::vmSampleCount(std::uint32_t vm) const
{
    if (vm >= impl_->info.vmCount)
        sim::fatal("TraceFile::vmSampleCount: vm %u out of range", vm);
    return impl_->vms[vm].totalSamples;
}

workload::TracePtr
TraceFile::vmTrace(std::uint32_t vm) const
{
    if (vm >= impl_->info.vmCount)
        sim::fatal("TraceFile::vmTrace: vm %u out of range (%u)", vm,
                   impl_->info.vmCount);
    return std::make_shared<detail::StreamedVmTrace>(impl_, vm);
}

std::size_t
TraceFile::cacheSlots() const
{
    return impl_->slotCount;
}

std::uint64_t
TraceFile::chunkLoads() const
{
    return impl_->loads();
}

} // namespace vpm::replay
