#include "core/scenario.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <memory>
#include <vector>

#include "simcore/logging.hpp"
#include "stats/summary.hpp"

namespace vpm::mgmt {

std::optional<PolicyPreset>
applyPolicy(ScenarioConfig &config, std::string_view name)
{
    std::optional<PolicyPreset> preset = resolvePolicy(
        name, config.datacenter.evaluationInterval,
        config.powerSpec.findSleepState("SYNTH") != nullptr);
    if (!preset)
        return std::nullopt;
    config.manager = preset->manager;
    config.jointPolicy = preset->joint;
    config.idleHierarchy.reset();
    if (preset->joint)
        config.idleHierarchy = power::modernIdleHierarchy();
    return preset;
}

void
collectRunOutcomes(dc::Cluster &cluster, const dc::MigrationEngine &migration,
                   const JointPolicyController *joint, sim::SimTime end,
                   ScenarioResult &result)
{
    result.meanMigrationSeconds =
        migration.completedCount() > 0 ? migration.durations().mean() : 0.0;
    result.crossRackMigrations = migration.crossRackCount();
    if (joint) {
        result.jointSpeedTransitions = joint->speedTransitions();
        result.jointIdleTransitions = joint->idleTransitions();
    }
    // Fleet-wide wake agility: every completed wake's end-to-end latency,
    // pooled across hosts. The p99 is exact (per-wake samples, not
    // buckets) — it is the sweep orchestrator's agility objective.
    std::vector<double> wake_latencies;
    for (const auto &host_ptr : cluster.hosts()) {
        if (power::IdleHierarchy *hier = host_ptr->idleHierarchy()) {
            hier->finish(end);
            result.idleTransitions += hier->transitions();
            result.idleTransitionJoules += hier->transitionEnergyJoules();
        }
        const std::vector<double> &samples =
            host_ptr->powerFsm().wakeLatenciesSeconds();
        wake_latencies.insert(wake_latencies.end(), samples.begin(),
                              samples.end());
    }
    result.wakes = wake_latencies.size();
    if (!wake_latencies.empty()) {
        stats::Summary wake_summary;
        for (const double s : wake_latencies)
            wake_summary.add(s);
        result.meanWakeSeconds = wake_summary.mean();
        result.wakeP99Seconds =
            stats::percentileExact(std::move(wake_latencies), 0.99);
    }
}

void
staticInitialPlacement(
    dc::Cluster &cluster,
    const std::vector<std::vector<dc::VmId>> &anti_affinity_groups)
{
    std::unordered_map<dc::VmId, int> group_of;
    for (std::size_t g = 0; g < anti_affinity_groups.size(); ++g) {
        for (const dc::VmId id : anti_affinity_groups[g])
            group_of.emplace(id, static_cast<int>(g));
    }

    // First-fit decreasing by full VM CPU size: the static placement an
    // administrator would configure once, with no knowledge of demand.
    std::vector<dc::VmId> order;
    for (const auto &vm_ptr : cluster.vms()) {
        if (!vm_ptr->placed())
            order.push_back(vm_ptr->id());
    }
    std::sort(order.begin(), order.end(), [&](dc::VmId a, dc::VmId b) {
        const double ca = cluster.vm(a).cpuMhz();
        const double cb = cluster.vm(b).cpuMhz();
        if (ca != cb)
            return ca > cb;
        return a < b;
    });

    std::vector<double> cpu_used(cluster.hostCount(), 0.0);
    std::vector<std::set<int>> groups_on(cluster.hostCount());
    for (dc::VmId vm_id : order) {
        const dc::Vm &vm = cluster.vm(vm_id);
        const auto group_it = group_of.find(vm_id);
        bool placed = false;
        for (std::size_t h = 0; h < cluster.hostCount(); ++h) {
            const dc::Host &host = cluster.host(static_cast<dc::HostId>(h));
            if (cpu_used[h] + vm.cpuMhz() > host.cpuCapacityMhz())
                continue;
            if (!cluster.memoryFits(vm, host))
                continue;
            if (group_it != group_of.end() &&
                groups_on[h].contains(group_it->second)) {
                continue; // an anti-affinity sibling already lives here
            }
            cluster.placeVm(vm_id, static_cast<dc::HostId>(h));
            cpu_used[h] += vm.cpuMhz();
            if (group_it != group_of.end())
                groups_on[h].insert(group_it->second);
            placed = true;
            break;
        }
        if (!placed)
            sim::fatal("staticInitialPlacement: VM '%s' (%g MHz, %g MB) "
                       "does not fit anywhere; shrink the fleet or grow "
                       "the cluster", vm.name().c_str(), vm.cpuMhz(),
                       vm.memoryMb());
    }
}

ScenarioResult
runScenario(const ScenarioConfig &config)
{
    if (config.hostCount < 1)
        sim::fatal("runScenario: need at least one host");
    if (config.duration <= sim::SimTime())
        sim::fatal("runScenario: duration must be positive");

    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    for (int h = 0; h < config.hostCount; ++h) {
        const power::HostPowerSpec &spec =
            config.heterogeneousSpecs.empty()
                ? config.powerSpec
                : config.heterogeneousSpecs[static_cast<std::size_t>(h) %
                                            config.heterogeneousSpecs
                                                .size()];
        cluster.addHost(config.hostConfig, spec);
    }

    sim::Rng rng(config.seed);
    std::vector<workload::VmWorkloadSpec> fleet =
        workload::makeEnterpriseMix(rng, config.vmCount, config.mix);
    if (config.transformFleet)
        config.transformFleet(fleet);
    for (workload::VmWorkloadSpec &spec : fleet)
        cluster.addVm(std::move(spec));

    if (config.idleHierarchy) {
        for (const auto &host_ptr : cluster.hosts())
            host_ptr->attachIdleHierarchy(
                std::make_unique<power::IdleHierarchy>(
                    simulator, *config.idleHierarchy));
    }

    staticInitialPlacement(cluster, config.manager.antiAffinityGroups);

    dc::MigrationEngine migration(simulator, cluster, config.migration);
    dc::DatacenterSim dcsim(simulator, cluster, migration,
                            config.datacenter);
    VpmManager manager(simulator, cluster, migration, dcsim,
                       config.manager);

    std::unique_ptr<dc::Topology> topology;
    if (config.topology) {
        topology = std::make_unique<dc::Topology>(config.hostCount,
                                                  *config.topology);
        migration.setTopology(topology.get());
        manager.attachTopology(*topology);
    }

    std::unique_ptr<dc::ProvisioningEngine> provisioning;
    if (config.provisioning) {
        provisioning = std::make_unique<dc::ProvisioningEngine>(
            simulator, cluster, *config.provisioning);
        manager.attachProvisioning(*provisioning);
        provisioning->start();
    }
    manager.start();

    std::unique_ptr<DvfsController> dvfs;
    if (config.dvfs) {
        if (config.jointPolicy)
            sim::fatal("runScenario: dvfs and jointPolicy both set — the "
                       "joint policy owns the speed knob");
        dvfs = std::make_unique<DvfsController>(cluster, dcsim,
                                                *config.dvfs);
        dvfs->start();
    }

    std::unique_ptr<JointPolicyController> joint;
    if (config.jointPolicy) {
        joint = std::make_unique<JointPolicyController>(cluster, dcsim,
                                                        *config.jointPolicy);
        joint->start();
    }

    std::unique_ptr<dc::FailureInjector> failures;
    if (config.failures) {
        failures = std::make_unique<dc::FailureInjector>(
            simulator, cluster, *config.failures);
        failures->start();
    }

    // Reference trackers, sampled on the evaluation cadence.
    const double total_capacity = cluster.totalCpuCapacityMhz();
    const double per_host_capacity =
        cluster.host(0).cpuCapacityMhz();
    double per_host_peak = config.powerSpec.peakPowerWatts();
    if (!config.heterogeneousSpecs.empty()) {
        per_host_peak = 0.0;
        for (const power::HostPowerSpec &spec : config.heterogeneousSpecs)
            per_host_peak += spec.peakPowerWatts();
        per_host_peak /= static_cast<double>(
            config.heterogeneousSpecs.size());
    }
    stats::TimeWeighted offered_load(simulator.now(), 0.0);
    stats::TimeWeighted ideal_power(simulator.now(), 0.0);
    dcsim.addEvaluationHook([&] {
        const double demand = cluster.totalVmDemandMhz();
        offered_load.update(simulator.now(), demand / total_capacity);
        ideal_power.update(simulator.now(),
                           demand / per_host_capacity * per_host_peak);
        if (config.evaluationProbe)
            config.evaluationProbe(cluster, simulator.now());
    });

    ScenarioResult result;
    result.metrics = dcsim.runFor(config.duration);
    offered_load.finish(simulator.now());
    ideal_power.finish(simulator.now());

    result.manager = manager.stats();
    result.offeredLoadFraction = offered_load.average();
    result.idealProportionalKwh =
        ideal_power.integralSeconds() / 3.6e6;
    if (dvfs)
        result.dvfsTransitions = dvfs->transitions();
    collectRunOutcomes(cluster, migration, joint.get(), simulator.now(),
                       result);
    if (failures) {
        result.hostCrashes = failures->crashes();
        result.hostRepairs = failures->repairs();
    }
    if (provisioning) {
        result.vmArrivals = provisioning->arrivals();
        result.vmDepartures = provisioning->departures();
        result.meanPlacementDelaySeconds =
            provisioning->placementDelays().mean();
        result.maxPlacementDelaySeconds =
            provisioning->placementDelays().max();
    }

    result.eventsProcessed = simulator.eventsProcessed();
    return result;
}

} // namespace vpm::mgmt
