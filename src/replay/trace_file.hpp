/**
 * @file
 * vpm-trace-1: the streaming columnar demand-trace format.
 *
 * Production replay needs per-VM demand series far larger than RAM: a
 * million VM-days at 5-minute samples is ~300M breakpoints. The format
 * therefore stores each VM's piecewise-constant demand as delta-encoded,
 * quantized breakpoints grouped into fixed-size chunks, and the reader
 * streams chunks through a bounded cache sized by a byte budget — the
 * working set never exceeds the configured window no matter how large the
 * file is.
 *
 * Layout (all integers host-endian; the file is a single-machine
 * experiment artifact like vpm-ckpt-1, not an interchange format):
 *
 *     header (40 bytes)
 *       char[8]  magic      "vpmtrc1\n"
 *       u32      version    1
 *       u32      vm_count
 *       u32      quantum    levels are integers in [0, quantum];
 *                           utilization = level / quantum
 *       u32      samples_per_chunk
 *       u64      index_offset
 *       u64      total_samples
 *     per-VM chunk runs, VM 0 first, chunks of one VM contiguous
 *       chunk header (32 bytes)
 *         u32 vm, u32 sample_count, u32 payload_bytes, u32 reserved
 *         i64 first_ts_us          timestamp of the chunk's first sample
 *         i64 end_ts_us            first ts of the NEXT chunk, or
 *                                  INT64_MAX on the VM's final chunk
 *       payload (payload_bytes)
 *         sample 0:   LEB128 varint level
 *         sample i>0: LEB128 varint (ts[i] - ts[i-1])
 *                     LEB128 varint zigzag(level[i] - level[i-1])
 *     index (vm_count x 24 bytes, at index_offset)
 *       u64 first_chunk_offset, u64 byte_len
 *       u32 chunk_count, u32 total_samples
 *
 * Span semantics match StepTrace: level i holds over [ts[i], ts[i+1]),
 * the first level also applies before its timestamp, and the last level
 * holds forever. The reader's spanAt() is exact over those windows, so
 * the evaluation loop's skip-if-valid fast path stays bit-identical to a
 * fully materialized StepTrace.
 */

#ifndef VPM_REPLAY_TRACE_FILE_HPP
#define VPM_REPLAY_TRACE_FILE_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "workload/demand_trace.hpp"

namespace vpm::replay {

/** Parsed header facts of an open trace file. */
struct TraceFileInfo
{
    std::uint32_t vmCount = 0;
    std::uint32_t quantum = 0;
    std::uint32_t samplesPerChunk = 0;
    std::uint64_t totalSamples = 0;
};

/**
 * Streaming writer. Feed breakpoints VM-major (vm ids nondecreasing,
 * timestamps strictly increasing within a VM); chunks are flushed as they
 * fill, so writer memory is O(one chunk). Equal consecutive levels are
 * merged (the earlier breakpoint's span simply extends), which is what
 * makes plateau-heavy traces compress well.
 */
class TraceFileWriter
{
  public:
    /**
     * @param quantum Utilization quantization denominator (>= 1); levels
     *        are round(util * quantum), so 10000 keeps 4 significant
     *        digits.
     * @param samples_per_chunk Breakpoints per chunk (>= 2).
     */
    TraceFileWriter(const std::string &path, std::uint32_t vm_count,
                    std::uint32_t quantum = 10000,
                    std::uint32_t samples_per_chunk = 512);

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** True when the output stream opened successfully. */
    bool ok() const { return out_.good(); }

    /**
     * Append one breakpoint: @p vm holds @p utilization (clamped to
     * [0, 1], quantized) from @p ts_us until its next breakpoint.
     * Fatal on ordering violations — those are producer bugs.
     */
    void append(std::uint32_t vm, std::int64_t ts_us, double utilization);

    /**
     * Flush pending chunks, write the index, patch the header. @return
     * false with @p error set on I/O failure. The writer is unusable
     * afterwards.
     */
    bool finish(std::string *error);

    std::uint64_t totalSamples() const { return totalSamples_; }

  private:
    struct PendingChunk
    {
        std::vector<std::int64_t> ts;
        std::vector<std::uint32_t> level;

        /** Empty the chunk, keeping its capacity. */
        void clear();
    };
    struct IndexEntry
    {
        std::uint64_t firstChunkOffset = 0;
        std::uint64_t byteLen = 0;
        std::uint32_t chunkCount = 0;
        std::uint32_t totalSamples = 0;
    };

    /** Write @p chunk for currentVm_ with the given end timestamp. */
    void flushChunk(const PendingChunk &chunk, std::int64_t end_ts_us);
    /** Flush held + open chunks of currentVm_ (the VM is complete). */
    void finishCurrentVm();

    std::ofstream out_;
    std::uint32_t vmCount_;
    std::uint32_t quantum_;
    std::uint32_t samplesPerChunk_;
    std::vector<IndexEntry> index_;
    std::uint64_t totalSamples_ = 0;

    std::int64_t currentVm_ = -1;
    std::int64_t lastTs_ = 0;
    bool haveLast_ = false;
    std::uint32_t lastLevel_ = 0;
    /** The filled chunk held back until its end timestamp is known. */
    PendingChunk held_;
    bool haveHeld_ = false;
    PendingChunk open_;
    /** One chunk's header + payload, reused across chunks. */
    std::vector<std::uint8_t> chunkBytes_;
    /** File offset of the next byte written. */
    std::uint64_t offset_ = 0;
    bool finished_ = false;
};

namespace detail {
class TraceFileImpl;
}

/**
 * An open vpm-trace-1 file plus its bounded chunk cache.
 *
 * vmTrace(v) hands out a workload::DemandTrace view of one VM's series;
 * all views share this object's chunk cache, whose slot count is derived
 * from @p window_bytes — the bound on decoded-chunk memory. Chunk loads
 * use pread, so concurrent shard workers stream independent VMs safely;
 * each view's cursor follows the owner-shard rule (one VM is only ever
 * sampled by the shard that owns it).
 */
class TraceFile
{
  public:
    /**
     * Open and validate @p path. @return nullptr with @p error set on a
     * missing file, bad magic/version, or an inconsistent index.
     * @param window_bytes Decoded-chunk cache budget; at least 8 slots
     *        are always provided so tiny budgets still make progress.
     */
    static std::shared_ptr<TraceFile> open(const std::string &path,
                                           std::size_t window_bytes,
                                           std::string *error);

    ~TraceFile();

    const TraceFileInfo &info() const;

    /** Breakpoints stored for one VM. */
    std::uint64_t vmSampleCount(std::uint32_t vm) const;

    /**
     * A DemandTrace view of @p vm's series (fatal if out of range). The
     * view keeps the file (and cache) alive via shared ownership.
     */
    workload::TracePtr vmTrace(std::uint32_t vm) const;

    /** Cache slots backing the window budget (diagnostics). */
    std::size_t cacheSlots() const;

    /** Chunk loads served from disk so far (diagnostics; never part of
     *  deterministic outputs — the count depends on cache collisions
     *  across concurrently streamed VMs). */
    std::uint64_t chunkLoads() const;

  private:
    explicit TraceFile(std::shared_ptr<detail::TraceFileImpl> impl);

    std::shared_ptr<detail::TraceFileImpl> impl_;
};

} // namespace vpm::replay

#endif // VPM_REPLAY_TRACE_FILE_HPP
