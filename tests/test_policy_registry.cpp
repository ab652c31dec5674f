/**
 * @file
 * Policy registry tests: every name resolves to one pinned configuration,
 * the joint speed window is 900 s of simulated time at any evaluation
 * interval, the paper's PolicyKind columns are registry rows, and every
 * preset runs a scenario end to end.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "power/server_models.hpp"

namespace vpm::mgmt {
namespace {

const sim::SimTime kMinute = sim::SimTime::minutes(1.0);

PolicyPreset
resolveOrDie(const char *name, sim::SimTime interval = kMinute,
             bool synthetic = false)
{
    const std::optional<PolicyPreset> preset =
        resolvePolicy(name, interval, synthetic);
    EXPECT_TRUE(preset.has_value()) << name;
    return preset.value_or(PolicyPreset{});
}

TEST(PolicyRegistryTest, PinsEveryPresetsManagerFields)
{
    struct Row
    {
        const char *name;
        const char *label;
        bool loadBalance;
        bool powerManage;
        const char *sleepState;
        const char *syntheticSleepState;
        bool hostSleep;
        int parkedReserve;
        double capacityBuffer;
        int hysteresisCycles;
    };
    const Row rows[] = {
        {"nopm", "NoPM", false, false, "S3", "SYNTH", true, 0, 0.15, 3},
        {"drm", "DRM", true, false, "S3", "SYNTH", true, 0, 0.15, 3},
        {"s5", "PM+S5", true, true, "S5", "SYNTH", true, 0, 0.30, 6},
        {"s3", "PM+S3", true, true, "S3", "SYNTH", true, 0, 0.15, 3},
        {"adaptive", "PM+adaptive", true, true, "", "", true, 0, 0.15, 3},
        {"cstates", "C-states", true, true, "S3", "SYNTH", false, 0, 0.15,
         3},
        {"joint", "Joint", true, true, "S3", "SYNTH", true, 3, 0.15, 3},
        {"hier", "Hier", false, true, "S3", "SYNTH", true, 0, 0.15, 3},
    };
    ASSERT_EQ(std::size(rows), std::size(kPolicyNames));
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const Row &row = rows[i];
        SCOPED_TRACE(row.name);
        EXPECT_EQ(kPolicyNames[i], row.name); // presentation order
        const PolicyPreset stock = resolveOrDie(row.name);
        EXPECT_EQ(stock.label, row.label);
        EXPECT_EQ(stock.manager.loadBalance, row.loadBalance);
        EXPECT_EQ(stock.manager.powerManage, row.powerManage);
        EXPECT_EQ(stock.manager.sleepState, row.sleepState);
        EXPECT_EQ(stock.manager.hostSleep, row.hostSleep);
        EXPECT_EQ(stock.manager.parkedReserve, row.parkedReserve);
        EXPECT_EQ(stock.manager.capacityBuffer, row.capacityBuffer);
        EXPECT_EQ(stock.manager.hysteresisCycles, row.hysteresisCycles);
        // The manager period is the caller's.
        EXPECT_EQ(stock.manager.period, VpmConfig{}.period);

        const PolicyPreset synthetic = resolveOrDie(row.name, kMinute, true);
        EXPECT_EQ(synthetic.manager.sleepState, row.syntheticSleepState);
    }
    EXPECT_FALSE(resolvePolicy("warp-drive", kMinute, false).has_value());
    EXPECT_FALSE(resolvePolicy("", kMinute, false).has_value());
    EXPECT_EQ(policyNameList(), "nopm|drm|s5|s3|adaptive|cstates|joint|hier");
}

TEST(PolicyRegistryTest, PinsTheGovernorOfEachHierarchyPreset)
{
    for (const char *name : {"nopm", "drm", "s5", "s3", "adaptive"})
        EXPECT_FALSE(resolveOrDie(name).joint.has_value()) << name;

    for (const sim::SimTime interval :
         {kMinute, sim::SimTime::seconds(300.0)}) {
        for (const char *name : {"cstates", "hier"}) {
            const PolicyPreset preset = resolveOrDie(name, interval);
            ASSERT_TRUE(preset.joint.has_value()) << name;
            EXPECT_FALSE(preset.joint->controlSpeed) << name;
            EXPECT_TRUE(preset.joint->controlIdle) << name;
            EXPECT_EQ(preset.joint->period, interval) << name;
        }
        const PolicyPreset joint = resolveOrDie("joint", interval);
        ASSERT_TRUE(joint.joint.has_value());
        EXPECT_TRUE(joint.joint->controlSpeed);
        EXPECT_TRUE(joint.joint->controlIdle);
        EXPECT_EQ(joint.joint->period, interval);
        EXPECT_EQ(joint.joint->speedSurgeGuard, 2.0);
    }

    // The 900 s speed window: 15 cycles at the sweep's 60 s interval,
    // 3 at the replay default of 300 s.
    EXPECT_EQ(resolveOrDie("joint", kMinute).joint->speedWindowCycles, 15);
    EXPECT_EQ(resolveOrDie("joint", sim::SimTime::seconds(300.0))
                  .joint->speedWindowCycles,
              3);
    EXPECT_EQ(speedWindowCycles(sim::SimTime::seconds(45.0)), 20);
    EXPECT_EQ(speedWindowCycles(sim::SimTime::seconds(400.0)), 3);
    EXPECT_EQ(speedWindowCycles(sim::SimTime::seconds(900.0)), 1);
    EXPECT_EQ(speedWindowCycles(sim::SimTime::hours(1.0)), 1);
}

TEST(PolicyRegistryTest, PaperPolicyKindsAreRegistryRows)
{
    const char *names[] = {"nopm", "drm", "s5", "s3", "adaptive"};
    for (std::size_t i = 0; i < std::size(allPolicies); ++i) {
        const PolicyKind kind = allPolicies[i];
        const PolicyPreset preset = resolveOrDie(names[i]);
        EXPECT_EQ(std::string(toString(kind)), preset.label);
        const VpmConfig config = makePolicy(kind);
        EXPECT_EQ(config.loadBalance, preset.manager.loadBalance);
        EXPECT_EQ(config.powerManage, preset.manager.powerManage);
        EXPECT_EQ(config.sleepState, preset.manager.sleepState);
        EXPECT_EQ(config.capacityBuffer, preset.manager.capacityBuffer);
        EXPECT_EQ(config.hysteresisCycles, preset.manager.hysteresisCycles);
    }
}

TEST(PolicyRegistryTest, ApplyPolicyReadsTheRigFromTheScenario)
{
    ScenarioConfig config;
    config.powerSpec =
        power::bladeWithSyntheticState(sim::SimTime::seconds(15.0));
    config.datacenter.evaluationInterval = sim::SimTime::seconds(300.0);
    ASSERT_TRUE(applyPolicy(config, "joint"));
    EXPECT_EQ(config.manager.sleepState, "SYNTH");
    ASSERT_TRUE(config.jointPolicy.has_value());
    EXPECT_EQ(config.jointPolicy->speedWindowCycles, 3);
    EXPECT_TRUE(config.idleHierarchy.has_value());

    // A preset without a governor drops the hierarchy again.
    ASSERT_TRUE(applyPolicy(config, "s3"));
    EXPECT_FALSE(config.jointPolicy.has_value());
    EXPECT_FALSE(config.idleHierarchy.has_value());

    const ScenarioConfig before = config;
    EXPECT_FALSE(applyPolicy(config, "warp-drive"));
    EXPECT_EQ(config.manager.sleepState, before.manager.sleepState);

    ScenarioConfig stock;
    ASSERT_TRUE(applyPolicy(stock, "s3"));
    EXPECT_EQ(stock.manager.sleepState, "S3");
}

TEST(PolicyRegistryTest, EveryPresetRunsAScenario)
{
    for (const std::string_view name : kPolicyNames) {
        SCOPED_TRACE(std::string(name));
        ScenarioConfig config;
        config.hostCount = 4;
        config.vmCount = 12;
        config.duration = sim::SimTime::hours(2.0);
        config.mix.loadScale = 0.4;
        ASSERT_TRUE(applyPolicy(config, name));
        config.manager.period = sim::SimTime::minutes(5.0);
        const ScenarioResult result = runScenario(config);
        EXPECT_GT(result.metrics.energyKwh, 0.0);
        EXPECT_GT(result.manager.cycles, 0u);
    }
}

} // namespace
} // namespace vpm::mgmt
