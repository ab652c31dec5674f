/**
 * @file
 * Scenario harness: one-call construction and execution of a complete
 * experiment (cluster + fleet + policy), shared by the benches, examples
 * and integration tests.
 *
 * A scenario builds a homogeneous cluster, draws a VM fleet from the
 * enterprise mix, places it statically (first-fit decreasing by VM size),
 * runs the chosen management policy for the configured duration, and
 * returns the run metrics plus manager counters and the ideal
 * energy-proportional reference energy.
 */

#ifndef VPM_CORE_SCENARIO_HPP
#define VPM_CORE_SCENARIO_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "core/dvfs.hpp"
#include "core/joint_policy.hpp"
#include "core/manager.hpp"
#include "core/policies.hpp"
#include "datacenter/datacenter_sim.hpp"
#include "datacenter/failure.hpp"
#include "datacenter/provisioning.hpp"
#include "power/server_models.hpp"
#include "workload/mix.hpp"

namespace vpm::mgmt {

/** Everything needed to run one experiment. */
struct ScenarioConfig
{
    int hostCount = 8;
    int vmCount = 40;

    dc::HostConfig hostConfig{};
    power::HostPowerSpec powerSpec = power::enterpriseBlade2013();

    /**
     * When non-empty, host i uses heterogeneousSpecs[i % size()] instead
     * of powerSpec (capacities stay uniform). The ideal-proportional
     * reference then uses the specs' mean peak power.
     */
    std::vector<power::HostPowerSpec> heterogeneousSpecs;

    workload::MixConfig mix{};
    dc::MigrationConfig migration{};
    dc::DatacenterConfig datacenter{};
    VpmConfig manager{};

    sim::SimTime duration = sim::SimTime::hours(24.0);
    std::uint64_t seed = 42;

    /** When set, VM lifecycle churn runs on top of the static fleet and
     *  the manager counts pending arrivals as required capacity. */
    std::optional<dc::ProvisioningConfig> provisioning;

    /** When set, a DVFS governor scales host frequencies to demand. */
    std::optional<DvfsConfig> dvfs;

    /** When set, every host gets this idle-state hierarchy attached under
     *  its power FSM (core C-states + package states). */
    std::optional<power::IdleHierarchySpec> idleHierarchy;

    /** When set, a joint speed/sleep governor runs each control period
     *  (requires idleHierarchy for the sleep half to do anything).
     *  Mutually exclusive with dvfs — the joint policy owns the speed
     *  knob via controlSpeed. */
    std::optional<JointPolicyConfig> jointPolicy;

    /** When set, hosts crash and get repaired per the failure process;
     *  the manager's HA restart and spare floor handle the fallout. */
    std::optional<dc::FailureConfig> failures;

    /** When set, the network has racks: migrations pay locality-dependent
     *  bandwidth and share per-rack uplink slots; the manager's
     *  rackAffinity knob becomes meaningful. */
    std::optional<dc::TopologyConfig> topology;

    /**
     * Optional fleet post-processing hook, applied after the mix is drawn
     * and before VMs are created — e.g. to overlay a load spike (F6).
     */
    std::function<void(std::vector<workload::VmWorkloadSpec> &)>
        transformFleet;

    /**
     * Optional probe fired after every demand evaluation with the cluster
     * state and the current simulated time — lets benches record time
     * series (power timelines, recovery times) without owning the rig.
     */
    std::function<void(const dc::Cluster &, sim::SimTime)> evaluationProbe;
};

/** Results of one scenario run. */
struct ScenarioResult
{
    dc::RunMetrics metrics;
    ManagerStats manager;

    /** Time-weighted mean of total demand / total capacity. */
    double offeredLoadFraction = 0.0;

    /** Energy of an ideal energy-proportional cluster serving the same
     *  demand, in kWh — the reference line of the proportionality figure.*/
    double idealProportionalKwh = 0.0;

    /** Mean live-migration duration, in seconds (0 if none completed). */
    double meanMigrationSeconds = 0.0;

    /** @name Churn outcomes (zero unless provisioning was enabled) */
    ///@{
    std::uint64_t vmArrivals = 0;
    std::uint64_t vmDepartures = 0;

    /** Mean wait between a VM's arrival and its placement, in seconds. */
    double meanPlacementDelaySeconds = 0.0;

    /** Worst single placement wait, in seconds. */
    double maxPlacementDelaySeconds = 0.0;
    ///@}

    /** Frequency-change commands (zero unless DVFS was enabled). */
    std::uint64_t dvfsTransitions = 0;

    /** @name Joint-policy outcomes (zero unless jointPolicy was set) */
    ///@{
    std::uint64_t jointSpeedTransitions = 0;
    std::uint64_t jointIdleTransitions = 0;
    ///@}

    /** Idle-hierarchy group transitions fleet-wide (policy + manager
     *  descents; zero unless idleHierarchy was set). */
    std::uint64_t idleTransitions = 0;

    /** Fleet-wide C-state transition energy, joules (part of totalKwh). */
    double idleTransitionJoules = 0.0;

    /** Completed migrations that crossed racks (zero on flat networks). */
    std::uint64_t crossRackMigrations = 0;

    /** @name Failure outcomes (zero unless failures were enabled) */
    ///@{
    std::uint64_t hostCrashes = 0;
    std::uint64_t hostRepairs = 0;
    ///@}

    /** @name Wake agility (fleet-wide, from the power FSM wake samples) */
    ///@{
    std::uint64_t wakes = 0;         ///< completed host wakes
    double meanWakeSeconds = 0.0;    ///< mean end-to-end wake latency
    double wakeP99Seconds = 0.0;     ///< 99th pct end-to-end wake latency
    ///@}

    /** Simulator events dispatched by this run (per-instance counter, so
     *  concurrent sweep cells attribute throughput correctly). */
    std::uint64_t eventsProcessed = 0;
};

/**
 * Install the registry preset @p name (core/policies.hpp): the manager
 * and, for presets with a joint governor, the modern idle hierarchy plus
 * the governor. The preset's rig facts come from @p config itself — the
 * evaluation interval and whether powerSpec carries the "SYNTH" state —
 * so set those first. The manager period is left at its default.
 * @return the installed preset, or std::nullopt (config untouched) for
 * an unknown name.
 */
std::optional<PolicyPreset> applyPolicy(ScenarioConfig &config,
                                        std::string_view name);

/**
 * Place every VM with first-fit decreasing by full VM size (CPU limit 1.0,
 * memory limit enforced, anti-affinity groups respected). Fatal if the
 * fleet does not fit — that is a scenario configuration error.
 */
void staticInitialPlacement(
    dc::Cluster &cluster,
    const std::vector<std::vector<dc::VmId>> &anti_affinity_groups = {});

/**
 * Fill the outcome fields every rig shares at the end of a run: migration
 * means, the joint governor's transitions (@p joint may be null), every
 * idle hierarchy closed at @p end with its transitions, and the completed
 * wakes with their exact mean and p99 end-to-end latency.
 */
void collectRunOutcomes(dc::Cluster &cluster,
                        const dc::MigrationEngine &migration,
                        const JointPolicyController *joint,
                        sim::SimTime end, ScenarioResult &result);

/** Build, run and tear down one scenario. Deterministic given the seed. */
ScenarioResult runScenario(const ScenarioConfig &config);

} // namespace vpm::mgmt

#endif // VPM_CORE_SCENARIO_HPP
