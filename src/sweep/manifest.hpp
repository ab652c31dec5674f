/**
 * @file
 * Sweep manifests: the declarative "vpm-sweep-manifest-1" grid format and
 * its deterministic expansion into cells.
 *
 * A manifest declares axes; the orchestrator runs the cross product:
 *
 *     {
 *       "schema": "vpm-sweep-manifest-1",
 *       "name": "example_grid",
 *       "duration_hours": 6.0,
 *       "repeats": 3,                    // wall-clock samples per cell
 *       "axes": {
 *         "policy": ["joint", "s3", "cstates"], // registry names
 *         "workload": ["steady", "surge"],
 *         "exit_latency_s": [15, 120, 600],
 *         "load_scale": [0.5],           // optional, default [0.5]
 *         "hosts": [8],                  // optional, default [8]
 *         "vms": [40],                   // optional, default [40]
 *         "seeds": [42, 43, 44, 45, 46]  // within-cell samples, NOT a
 *       }                                //   grid axis (see below)
 *     }
 *
 * Expansion is row-major over the FIXED canonical axis order
 * policy > workload > exit_latency_s > load_scale > hosts > vms (last
 * axis fastest), regardless of the order axes appear in the manifest.
 * The cell id spells out the full assignment ("policy=joint/workload=
 * surge/exit=15/load=0.5/hosts=8/vms=40"), and the cell index is the
 * position in that expansion — both are therefore functions of the
 * manifest alone, never of --threads or scheduling.
 *
 * A policy value is any name of the policy registry (core/policies.hpp),
 * resolved on the cell's rig — the blade with the synthetic deep state at
 * the cell's exit latency, evaluated every minute — so "joint" here is
 * the configuration vpm_sim, F11 and replay run under that name.
 *
 * The reader is strict: an unknown key, a value of the wrong JSON type,
 * or a count (hosts, vms, repeats, seeds) that is not a whole number in
 * range rejects the manifest instead of falling back to a default.
 *
 * Seeds are deliberately not a grid axis: the simulator is deterministic
 * given a seed, so re-running a cell cannot produce new values — the seed
 * list IS the cell's sample set for the deterministic metrics (energy,
 * SLA, wake p99), from which the confidence intervals are computed.
 */

#ifndef VPM_SWEEP_MANIFEST_HPP
#define VPM_SWEEP_MANIFEST_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace vpm::sweep {

/** Policies a cell can run: the policy registry's names. */
extern const std::vector<std::string> kKnownPolicies;

/** Compact canonical number form (%g) for cell ids and report cells:
 *  "15", "0.5", "1e+06". */
std::string axisNum(double v);

/** Workload shapes a cell can run. */
extern const std::vector<std::string> kKnownWorkloads;

/** A parsed "vpm-sweep-manifest-1" document. */
struct SweepManifest
{
    std::string name;
    double durationHours = 6.0;
    int repeats = 1;

    /** @name Axes (each non-empty after a successful parse) */
    ///@{
    std::vector<std::string> policies;
    std::vector<std::string> workloads;
    std::vector<double> exitLatenciesS;
    std::vector<double> loadScales;
    std::vector<int> hostCounts;
    std::vector<int> vmCounts;
    ///@}

    /** Within-cell sample seeds (not a grid axis). */
    std::vector<std::uint64_t> seeds;

    /** Cells in the expanded grid (product of the six axes). */
    std::uint64_t cellCount() const;
};

/** One fully-assigned grid point. */
struct CellSpec
{
    std::uint64_t index = 0; ///< canonical position in the expansion
    std::string id;          ///< canonical "axis=value/..." string
    std::string policy;
    std::string workload;
    double exitLatencyS = 15.0;
    double loadScale = 0.5;
    int hosts = 8;
    int vms = 40;
};

/**
 * Parse a manifest.
 * @return false with @p error set on malformed JSON, a schema mismatch,
 *         an unknown key, policy or workload, a mistyped value, or a
 *         degenerate axis (empty list, non-positive durations, counts that
 *         are not whole numbers in range, repeats < 1).
 */
bool parseManifest(std::istream &in, SweepManifest &out,
                   std::string *error);

/**
 * Content fingerprint of everything that determines a cell's RESULTS:
 * duration, the six grid axes, and the seed list — deliberately not the
 * name (cosmetic) or repeats (wall-clock sampling only). FNV-1a as 16
 * hex digits. Cells are stamped with it so `--resume` against an edited
 * grid re-runs stale cells instead of silently trusting them.
 */
std::string manifestContentHash(const SweepManifest &manifest);

/**
 * Expand the manifest's axes into the canonical cell list. Pure function
 * of the manifest: byte-identical ids and indices on every call.
 */
std::vector<CellSpec> expandGrid(const SweepManifest &manifest);

} // namespace vpm::sweep

#endif // VPM_SWEEP_MANIFEST_HPP
