/**
 * @file
 * Example: a day in a power-managed datacenter, hour by hour.
 *
 * Runs the PM+S3 policy over a 24-hour diurnal enterprise day and prints
 * an hourly log of what the manager is doing: offered load, hosts
 * on/asleep, instantaneous cluster power, and the ideal proportional power
 * for comparison. This is the "watch it breathe" view of the system: hosts
 * drain away overnight and return for the morning ramp.
 *
 * Usage: diurnal_datacenter [hosts] [vms] [policy]
 *   policy: any policy-registry name (default s3)
 */

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "core/scenario.hpp"
#include "stats/table.hpp"
#include "telemetry/cli.hpp"

int
main(int argc, char **argv)
{
    using namespace vpm;

    // Strict operands: a malformed count or an unknown policy name is
    // refused (exit 2) before anything runs.
    const cli::FlagReader args(
        "diurnal_datacenter",
        [&](std::FILE *out) {
            std::fprintf(out, "usage: %s [hosts >= 1] [vms >= 0] [%s]\n",
                         argv[0], mgmt::policyNameList().c_str());
        },
        argc, argv);
    if (argc > 4)
        args.refuse("too many operands");

    mgmt::ScenarioConfig config;
    config.hostCount =
        argc > 1 ? static_cast<int>(args.operandInteger(1, 1)) : 8;
    config.vmCount =
        argc > 2 ? static_cast<int>(args.operandInteger(2, 0)) : 40;
    config.duration = sim::SimTime::hours(24.0);
    const std::string policy = argc > 3 ? argv[3] : "s3";
    const std::optional<mgmt::PolicyPreset> preset =
        mgmt::applyPolicy(config, policy);
    if (!preset)
        args.refuse("unknown policy '" + policy + "'");

    const double peak_w = config.powerSpec.peakPowerWatts();
    const double cap_mhz = config.hostConfig.cpuCapacityMhz;

    stats::Table hourly("hour-by-hour: " + preset->label,
                        {"hour", "load", "hosts on", "asleep", "in transit",
                         "cluster W", "ideal W"});
    sim::SimTime next_report;
    config.evaluationProbe = [&](const dc::Cluster &cluster,
                                 sim::SimTime now) {
        if (now < next_report)
            return;
        next_report = now + sim::SimTime::hours(1.0);
        const double demand = cluster.totalVmDemandMhz();
        hourly.addRow(
            {stats::fmt(now.toHours(), 0),
             stats::fmtPercent(demand / cluster.totalCpuCapacityMhz(), 1),
             std::to_string(cluster.hostsOn()),
             std::to_string(cluster.hostsAsleep()),
             std::to_string(cluster.hostsTransitioning()),
             stats::fmt(cluster.totalPowerWatts(), 0),
             stats::fmt(demand / cap_mhz * peak_w, 0)});
    };

    const mgmt::ScenarioResult result = mgmt::runScenario(config);
    hourly.print(std::cout);

    std::printf("\n24 h totals: %.2f kWh (ideal proportional %.2f kWh), "
                "satisfaction %.2f%%,\n%llu migrations, %llu power actions, "
                "%.1f hosts on average\n",
                result.metrics.energyKwh, result.idealProportionalKwh,
                result.metrics.satisfaction * 100.0,
                static_cast<unsigned long long>(result.metrics.migrations),
                static_cast<unsigned long long>(
                    result.metrics.powerActions),
                result.metrics.averageHostsOn);
    return 0;
}
