/**
 * @file Property sweeps over whole scenarios (randomized end-to-end fuzz).
 *
 * For a grid of seeds and policies, run a short scenario and assert the
 * invariants that must hold no matter what the workload draw looks like:
 * conservation (every VM accounted for), bounded metrics, physical sanity
 * of the energy numbers, and the policy-lattice orderings the system
 * guarantees by construction.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/scenario.hpp"

namespace vpm::mgmt {
namespace {

using sim::SimTime;

class ScenarioPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, PolicyKind>>
{
};

TEST_P(ScenarioPropertyTest, InvariantsHoldForAnyDraw)
{
    const auto [seed, policy] = GetParam();

    ScenarioConfig config;
    config.hostCount = 5;
    config.vmCount = 22;
    config.duration = SimTime::hours(8.0);
    config.seed = static_cast<std::uint64_t>(seed) * 7919 + 1;
    config.manager = makePolicy(policy);
    config.manager.period = SimTime::minutes(2.0);
    config.manager.hysteresisCycles = 2;

    dc::ProvisioningConfig churn;
    churn.arrivalsPerHour = 3.0;
    churn.meanLifetime = SimTime::hours(2.0);
    churn.seed = config.seed + 1;
    config.provisioning = churn;

    // Invariants sampled during the run.
    bool vm_conservation_ok = true;
    bool memory_ok = true;
    bool phases_ok = true;
    config.evaluationProbe = [&](const dc::Cluster &cluster,
                                 sim::SimTime) {
        std::size_t resident = 0;
        for (const auto &host_ptr : cluster.hosts()) {
            resident += host_ptr->vms().size();
            memory_ok = memory_ok &&
                        host_ptr->committedMemoryMb() <=
                            host_ptr->memoryCapacityMb() + 1e-6;
            // VMs only ever live on powered-on hosts.
            phases_ok = phases_ok &&
                        (host_ptr->isOn() || host_ptr->vms().empty());
        }
        std::size_t placed = 0;
        for (const auto &vm_ptr : cluster.vms())
            placed += vm_ptr->placed() ? 1 : 0;
        vm_conservation_ok = vm_conservation_ok && resident == placed;
    };

    const ScenarioResult result = runScenario(config);

    EXPECT_TRUE(vm_conservation_ok);
    EXPECT_TRUE(memory_ok);
    EXPECT_TRUE(phases_ok);

    // Metric sanity.
    EXPECT_GT(result.metrics.energyKwh, 0.0);
    EXPECT_GE(result.metrics.satisfaction, 0.0);
    EXPECT_LE(result.metrics.satisfaction, 1.0 + 1e-9);
    EXPECT_GE(result.metrics.violationFraction, 0.0);
    EXPECT_LE(result.metrics.violationFraction, 1.0);
    EXPECT_GE(result.metrics.averageHostsOn, 0.0);
    EXPECT_LE(result.metrics.averageHostsOn, 5.0 + 1e-9);
    EXPECT_DOUBLE_EQ(result.metrics.simulatedHours, 8.0);

    // Physical bounds: the cluster can never draw less than every host at
    // its deepest sleep floor, nor more than every host flat out.
    const power::HostPowerSpec &spec = config.powerSpec;
    double floor_w = spec.idlePowerWatts();
    for (const auto &state : spec.sleepStates())
        floor_w = std::min(floor_w, state.sleepPowerWatts);
    EXPECT_GE(result.metrics.averagePowerWatts, 5 * floor_w);
    EXPECT_LE(result.metrics.averagePowerWatts,
              5 * spec.peakPowerWatts());

    // Policy lattice: only power-managing policies take power actions.
    if (policy == PolicyKind::NoPM || policy == PolicyKind::DrmOnly) {
        EXPECT_EQ(result.metrics.powerActions, 0u);
    }
    if (policy == PolicyKind::NoPM) {
        EXPECT_EQ(result.manager.migrationsRequested, 0u);
    }

    // Churn accounting: departures never exceed arrivals.
    EXPECT_LE(result.vmDepartures, result.vmArrivals);
}

INSTANTIATE_TEST_SUITE_P(
    SeedByPolicy, ScenarioPropertyTest,
    ::testing::Combine(::testing::Range(1, 7),
                       ::testing::Values(PolicyKind::NoPM,
                                         PolicyKind::DrmOnly,
                                         PolicyKind::PmS3,
                                         PolicyKind::PmS5,
                                         PolicyKind::PmAdaptive)));

/** Energy ordering that must hold across seeds on diurnal days. */
class EnergyOrderingTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EnergyOrderingTest, PowerManagementNeverLosesToNoPm)
{
    ScenarioConfig config;
    config.hostCount = 6;
    config.vmCount = 28;
    config.duration = SimTime::hours(12.0);
    config.seed = static_cast<std::uint64_t>(GetParam()) * 104729 + 3;

    config.manager = makePolicy(PolicyKind::NoPM);
    const double nopm_kwh = runScenario(config).metrics.energyKwh;

    config.manager = makePolicy(PolicyKind::PmS3);
    const ScenarioResult pm = runScenario(config);

    EXPECT_LT(pm.metrics.energyKwh, nopm_kwh);
    EXPECT_GE(pm.metrics.energyKwh, pm.idealProportionalKwh * 0.99);
    EXPECT_GT(pm.metrics.satisfaction, 0.95);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnergyOrderingTest,
                         ::testing::Range(1, 6));

} // namespace
} // namespace vpm::mgmt
