/**
 * @file
 * Configuration for the telemetry subsystem.
 *
 * Telemetry is off by default and every emission point early-outs on the
 * enabled flag, so instrumented code costs one predictable branch per event
 * when tracing is not wanted. All journal storage is preallocated at
 * configure() time: recording never allocates. The time-series store is
 * bounded by its memory budget, so enabling telemetry never makes a run's
 * memory grow with its length.
 */

#ifndef VPM_TELEMETRY_TELEMETRY_CONFIG_HPP
#define VPM_TELEMETRY_TELEMETRY_CONFIG_HPP

#include <cstddef>
#include <cstdint>

namespace vpm::telemetry {

/** Knobs for the journal and the time-series store. */
struct TelemetryConfig
{
    /** Master switch for both surfaces: the journal and the time-series
     *  store record exactly when this is set. */
    bool enabled = false;

    /**
     * Ring-buffer capacity of the event journal, in events. When the
     * journal is full the oldest events are overwritten (and counted as
     * dropped), so a run can never exhaust memory by tracing.
     */
    std::size_t journalCapacity = 1u << 16;

    /** Downsampling interval of the time-series store. */
    std::int64_t timeseriesBucketUs = 60'000'000;

    /** Memory budget for sealed compressed blocks (oldest evicted): the
     *  store's whole history costs at most this, however long the run. */
    std::size_t timeseriesBudgetBytes = 1u << 20;
};

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_TELEMETRY_CONFIG_HPP
