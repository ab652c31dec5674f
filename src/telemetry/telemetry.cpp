#include "telemetry/telemetry.hpp"

#include <fstream>

#include "telemetry/profiler.hpp"

namespace vpm::telemetry {

void
Telemetry::configure(const TelemetryConfig &config)
{
    config_ = config;
    journal_.configure(config.journalCapacity, config.enabled);
    TimeSeriesConfig ts;
    ts.bucketUs = config.timeseriesBucketUs;
    ts.memoryBudgetBytes = config.timeseriesBudgetBytes;
    timeseries_.configure(ts, config.enabled);
    watchdog_.reset();
    haveFlushWall_ = false; // bucket grid (or history) may have changed
}

void
Telemetry::flushTimeseries(std::int64_t t_us)
{
    if (!timeseries_.enabled())
        return;
    // Idempotence gate: nothing seals (and the watchdog's wall grid does
    // not advance) until t_us crosses a bucket boundary, so only the first
    // call per bucket interval does any work.
    const std::int64_t bucket = timeseries_.config().bucketUs;
    const std::int64_t wall =
        t_us - (((t_us % bucket) + bucket) % bucket);
    if (haveFlushWall_ && wall == lastFlushWallUs_)
        return;
    lastFlushWallUs_ = wall;
    haveFlushWall_ = true;
    timeseries_.flushAt(t_us);
    if (!watchdog_.empty())
        watchdog_.evaluate(timeseries_, journal_, t_us);
    if (!snapshotPath_.empty()) {
        // Wall-clock throttle: a quick run flushes thousands of simulated
        // ticks per real second, and each refresh rewrites the whole
        // store; count-based spacing would make the rewrite the dominant
        // cost of fast runs.
        const auto now = std::chrono::steady_clock::now();
        if (lastSnapshotWrite_.time_since_epoch().count() == 0 ||
            now - lastSnapshotWrite_ >=
                std::chrono::milliseconds(snapshotIntervalMs_)) {
            writeSnapshotFiles();
            lastSnapshotWrite_ = now;
        }
    }
}

void
Telemetry::setSnapshotTarget(std::string path, int min_interval_ms)
{
    snapshotPath_ = std::move(path);
    snapshotIntervalMs_ = min_interval_ms > 0 ? min_interval_ms : 1;
    lastSnapshotWrite_ = {};
}

bool
Telemetry::writeSnapshotFiles() const
{
    if (snapshotPath_.empty())
        return false;
    std::ofstream bin(snapshotPath_, std::ios::binary | std::ios::trunc);
    if (!bin)
        return false;
    timeseries_.writeSnapshot(bin);
    std::ofstream prom(snapshotPath_ + ".prom", std::ios::trunc);
    if (!prom)
        return false;
    timeseries_.writePrometheus(prom);
    return true;
}

void
Telemetry::reset()
{
    journal_.clear();
    timeseries_.reset();
    watchdog_.reset();
    haveFlushWall_ = false;
}

Telemetry &
global()
{
    static Telemetry instance;
    return instance;
}

} // namespace vpm::telemetry
