/**
 * @file
 * Exporters for the telemetry subsystem.
 *
 * Three formats, three audiences:
 *  - JSONL journal dump: one flat JSON object per event; machine-greppable
 *    and the input format of the trace_inspect CLI.
 *  - Bucket CSV of the time-series store: one long-form row per bucket
 *    (`series,start_us,min,max,mean,sum,count,last`), ready for a
 *    spreadsheet or pandas. `vpm_top --query` prints the same rows from a
 *    `vpm-ts-1` snapshot through the same writer.
 *  - Chrome trace-event JSON: loads in chrome://tracing and Perfetto; one
 *    track per host with spans for power states, one track per migrating
 *    VM, instant events for manager decisions and SLA violations, and
 *    one counter track per store series (bucket means).
 */

#ifndef VPM_TELEMETRY_EXPORT_HPP
#define VPM_TELEMETRY_EXPORT_HPP

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace vpm::telemetry {

/**
 * RFC 4180 CSV quoting: a cell containing a comma, quote, CR or LF is
 * wrapped in quotes with embedded quotes doubled; anything else passes
 * through untouched. Shared by every CSV writer (bucket CSV,
 * trace_inspect) so user-supplied strings — watchdog rule names, track
 * names — cannot break row structure.
 */
std::string csvQuote(const std::string &cell);

/** One event per line; see DESIGN.md for the per-kind field layout. */
void writeJournalJsonl(const EventJournal &journal, std::ostream &out);

/** Bucket value formatting shared by the CSV and vpm_top's JSON:
 *  integral values print without a fraction, everything else as %.10g. */
std::string formatBucketValue(double v);

/**
 * The one CSV rendering of store series: the header
 * `series,start_us,min,max,mean,sum,count,last`, then, for each of
 * @p names in order, one row per bucket whose start lies in
 * [@p t0_us, @p t1_us]. A name absent from @p snapshot adds no rows.
 */
void writeBucketCsv(
    const TsSnapshot &snapshot, const std::vector<std::string> &names,
    std::ostream &out,
    std::int64_t t0_us = std::numeric_limits<std::int64_t>::min(),
    std::int64_t t1_us = std::numeric_limits<std::int64_t>::max());

/** writeBucketCsv over every series of the live store, in registration
 *  order. */
void writeMetricsCsv(const Telemetry &telemetry, std::ostream &out);

/** Chrome trace-event JSON (chrome://tracing / Perfetto loadable). */
void writeChromeTrace(const Telemetry &telemetry, std::ostream &out);

/**
 * Write the full export triple derived from one base path: the Chrome
 * trace at @p chrome_path itself, the journal next to it with a .jsonl
 * extension, and the bucket CSV with a .csv extension (replacing a
 * trailing ".json" when present, appending otherwise).
 * @return false if any file could not be opened (a message is printed).
 */
bool writeTraceFiles(const Telemetry &telemetry,
                     const std::string &chrome_path);

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_EXPORT_HPP
