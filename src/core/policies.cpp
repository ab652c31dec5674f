#include "core/policies.hpp"

#include <algorithm>
#include <iterator>

#include "simcore/logging.hpp"

namespace vpm::mgmt {

namespace {

enum class Governor
{
    None,
    IdleOnly,     ///< C-state half only (controlSpeed = false)
    SpeedAndIdle, ///< the full joint speed/sleep governor
};

/** Row i is kPolicyNames[i]; PolicyKind indexes the first five. */
struct Row
{
    const char *label;
    bool loadBalance;
    bool powerManage;
    const char *sleepState; ///< fixed states become "SYNTH" on that blade
    double capacityBuffer;  ///< S5's minutes-scale exit wants more spare
    int hysteresisCycles;   ///< ...and a longer hold before a shutdown
    bool hostSleep;         ///< false parks drained hosts instead
    int parkedReserve;
    Governor governor;
};

constexpr Row kRows[] = {
    {"NoPM", false, false, "S3", 0.15, 3, true, 0, Governor::None},
    {"DRM", true, false, "S3", 0.15, 3, true, 0, Governor::None},
    {"PM+S5", true, true, "S5", 0.30, 6, true, 0, Governor::None},
    {"PM+S3", true, true, "S3", 0.15, 3, true, 0, Governor::None},
    {"PM+adaptive", true, true, "", 0.15, 3, true, 0, Governor::None},
    {"C-states", true, true, "S3", 0.15, 3, false, 0, Governor::IdleOnly},
    {"Joint", true, true, "S3", 0.15, 3, true, 3, Governor::SpeedAndIdle},
    {"Hier", false, true, "S3", 0.15, 3, true, 0, Governor::IdleOnly},
};
static_assert(std::size(kRows) == std::size(kPolicyNames));

PolicyPreset
build(const Row &row, sim::SimTime evaluation_interval, bool synthetic)
{
    PolicyPreset preset;
    preset.label = row.label;
    VpmConfig &manager = preset.manager;
    manager.loadBalance = row.loadBalance;
    manager.powerManage = row.powerManage;
    manager.sleepState =
        synthetic && *row.sleepState != '\0' ? "SYNTH" : row.sleepState;
    manager.capacityBuffer = row.capacityBuffer;
    manager.hysteresisCycles = row.hysteresisCycles;
    manager.hostSleep = row.hostSleep;
    manager.parkedReserve = row.parkedReserve;
    if (row.governor != Governor::None) {
        JointPolicyConfig joint;
        joint.period = evaluation_interval;
        joint.controlSpeed = row.governor == Governor::SpeedAndIdle;
        if (joint.controlSpeed) {
            joint.speedWindowCycles = speedWindowCycles(joint.period);
            joint.speedSurgeGuard = 2.0;
        }
        preset.joint = joint;
    }
    return preset;
}

const Row &
rowOf(PolicyKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    if (index >= std::size(allPolicies))
        sim::panic("invalid PolicyKind %d", static_cast<int>(kind));
    return kRows[index];
}

} // namespace

std::string
policyNameList()
{
    std::string out;
    for (const std::string_view name : kPolicyNames) {
        if (!out.empty())
            out += '|';
        out += name;
    }
    return out;
}

int
speedWindowCycles(sim::SimTime period)
{
    constexpr std::int64_t kWindowUs = 900'000'000; // 900 s
    const std::int64_t period_us = std::max<std::int64_t>(1, period.micros());
    return static_cast<int>((kWindowUs + period_us - 1) / period_us);
}

std::optional<PolicyPreset>
resolvePolicy(std::string_view name, sim::SimTime evaluation_interval,
              bool synthetic_deep_state)
{
    const auto *const it = std::find(std::begin(kPolicyNames),
                                     std::end(kPolicyNames), name);
    if (it == std::end(kPolicyNames))
        return std::nullopt;
    return build(kRows[it - std::begin(kPolicyNames)], evaluation_interval,
                 synthetic_deep_state);
}

const char *
toString(PolicyKind kind)
{
    return rowOf(kind).label;
}

VpmConfig
makePolicy(PolicyKind kind)
{
    return build(rowOf(kind), sim::SimTime::minutes(1.0), false).manager;
}

} // namespace vpm::mgmt
