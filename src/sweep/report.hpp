/**
 * @file
 * Sweep reporting: the deterministic policy table (text + CSV) and the
 * Pareto-frontier extraction over energy / SLA / wake agility.
 *
 * Everything emitted here is a pure function of the matrix's
 * deterministic metrics (energy_j, sla_violation_pct, wake_p99_s) and the
 * canonical cell order, so the files are byte-identical across sweep
 * --threads values and execution modes. The wall-clock metrics stay in
 * the matrix JSON only.
 */

#ifndef VPM_SWEEP_REPORT_HPP
#define VPM_SWEEP_REPORT_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/sweep_matrix.hpp"

namespace vpm::sweep {

/** One cell's standing in its comparison group. */
struct ParetoEntry
{
    std::string cellId;
    std::uint64_t index = 0;
    std::string policy;
    double energyJ = 0.0;
    double slaViolationPct = 0.0;
    double wakeP99S = 0.0;
    bool onFrontier = false;

    /** The frontier cell that dominates this one ("" when on frontier;
     *  the lowest-index dominator when several do). */
    std::string dominatedBy;

    /** True when the dominator's CI and this cell's CI are separated on
     *  every objective whose points differ — the domination is
     *  statistically significant, not just a point-estimate ordering. */
    bool ciSeparated = false;
};

/**
 * Cells competing under identical non-policy axes (same workload, exit
 * latency, load, fleet): the only fair comparison set for a policy.
 */
struct ParetoGroup
{
    std::string key; ///< the shared "workload=.../.../vms=..." suffix
    std::vector<ParetoEntry> entries; ///< canonical cell order
};

struct ParetoReport
{
    std::vector<ParetoGroup> groups; ///< first-appearance order
};

/**
 * Extract the Pareto frontier of each comparison group, minimizing
 * {energy_j, sla_violation_pct, wake_p99_s} point estimates. A cell
 * dominates another when it is <= on all three objectives and < on at
 * least one. Cells that did not finish (failed/timeout) are excluded.
 */
ParetoReport paretoFrontier(const telemetry::SweepMatrix &matrix);

/** The frontier as human-readable text. */
void writeParetoText(const ParetoReport &report, std::ostream &out);

/** The policy table (deterministic metrics with CIs) as aligned text. */
void writePolicyTable(const telemetry::SweepMatrix &matrix,
                      std::ostream &out);

/** The policy table as CSV (one row per cell, stable column order). */
void writePolicyCsv(const telemetry::SweepMatrix &matrix,
                    std::ostream &out);

/**
 * Write the artifact set sweep and replay branch share into @p dir:
 * matrix.json (vpm-sweep-1), report.txt (policy table + Pareto frontier)
 * and report.csv. @return the number of cells that did not finish ok.
 */
std::size_t writeArtifacts(const telemetry::SweepMatrix &matrix,
                           const std::string &dir);

} // namespace vpm::sweep

#endif // VPM_SWEEP_REPORT_HPP
