/**
 * @file
 * Telemetry facade: one object bundling the two metric surfaces — the
 * event journal (what happened, one record per decision or transition)
 * and the downsampling time-series store (how aggregates moved, in
 * bounded memory) — plus the process-global instance the instrumented
 * libraries emit into. Counts a component keeps for itself (events
 * dispatched, watchdog alerts, forecast error) stay on that component.
 *
 * The simulator is single-threaded and one-per-experiment, so a global
 * sink (mirroring the logging module's global level) keeps wiring trivial:
 * any layer can emit without threading a handle through every constructor.
 * Tests that want isolation construct their own Telemetry and drive the
 * same classes directly.
 */

#ifndef VPM_TELEMETRY_TELEMETRY_HPP
#define VPM_TELEMETRY_TELEMETRY_HPP

#include <chrono>
#include <cstdint>
#include <string>

#include "telemetry/event_journal.hpp"
#include "telemetry/telemetry_config.hpp"
#include "telemetry/timeseries.hpp"
#include "telemetry/watchdog.hpp"

namespace vpm::telemetry {

/** Journal + time-series store under one switch. */
class Telemetry
{
  public:
    Telemetry() = default;

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /**
     * Apply a configuration. Enabling preallocates the journal ring and
     * turns the store on; disabling releases the ring and drops any
     * recorded events and buckets. Store series registrations always
     * survive (their ids are cached by instrumented code).
     */
    void configure(const TelemetryConfig &config);

    const TelemetryConfig &config() const { return config_; }
    bool enabled() const { return config_.enabled; }

    EventJournal &journal() { return journal_; }
    const EventJournal &journal() const { return journal_; }

    TimeSeriesStore &timeseries() { return timeseries_; }
    const TimeSeriesStore &timeseries() const { return timeseries_; }

    /** Watchdog rules survive configure(); only streak state resets. */
    Watchdog &watchdog() { return watchdog_; }
    const Watchdog &watchdog() const { return watchdog_; }

    /**
     * Seal time-series buckets up to @p t_us, then evaluate the watchdog
     * against the freshly sealed buckets — alerts land in the journal with
     * the ambient TraceContext and count in Watchdog::alertCount().
     * Call once per management tick after recording the tick's samples.
     * When a snapshot target is set, the files are also refreshed (at most
     * once per wall-clock interval) so an external vpm_top can watch live.
     */
    void flushTimeseries(std::int64_t t_us);

    /**
     * Have flushTimeseries() periodically rewrite @p path as a `vpm-ts-1`
     * snapshot plus a Prometheus-text sibling at `<path>.prom`. Empty path
     * disables. Rewrites are whole-store dumps (every copy on disk is
     * self-contained) and are throttled by wall clock — at most one per
     * @p min_interval_ms — so simulated time moving much faster than real
     * time cannot turn the refresh into the run's dominant cost. Callers
     * that need the final, complete snapshot must call
     * writeSnapshotFiles() once at the end of the run.
     */
    void setSnapshotTarget(std::string path, int min_interval_ms = 1000);

    const std::string &snapshotPath() const { return snapshotPath_; }

    /** Write the snapshot files now. @return false when no target is set
     *  or a file cannot be opened. */
    bool writeSnapshotFiles() const;

    /** Drop events and buckets; keep all series registrations. */
    void reset();

  private:
    TelemetryConfig config_;
    EventJournal journal_;
    TimeSeriesStore timeseries_;
    Watchdog watchdog_;
    /** Bucket-grid position of the last flushTimeseries() that did work.
     *  Sealing, watchdog evaluation and snapshot refresh are all
     *  idempotent while the grid stands still (buckets only change state
     *  when simulated time crosses a bucket boundary), so repeat calls
     *  within one interval return immediately — with a sub-bucket
     *  management tick that drops two thirds of the flush cost. */
    std::int64_t lastFlushWallUs_ = 0;
    bool haveFlushWall_ = false;
    std::string snapshotPath_;        ///< "": periodic snapshots off
    int snapshotIntervalMs_ = 1000;
    std::chrono::steady_clock::time_point lastSnapshotWrite_{};
};

/** The process-global sink all instrumented libraries emit into. */
Telemetry &global();

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_TELEMETRY_HPP
