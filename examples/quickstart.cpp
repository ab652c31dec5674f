/**
 * @file
 * Quickstart: the smallest complete use of the vpm public API.
 *
 * Builds an 8-host cluster with 40 VMs on a 24-hour diurnal enterprise
 * workload, runs the paper's PM+S3 policy, and prints the headline numbers
 * next to the NoPM baseline.
 *
 * Usage: quickstart [hosts] [vms]
 */

#include <cstdio>
#include <iostream>

#include "core/scenario.hpp"
#include "stats/table.hpp"
#include "telemetry/cli.hpp"

int
main(int argc, char **argv)
{
    using namespace vpm;

    // Strict operands: "5x" or "-1" is refused (exit 2), never read as 5.
    const cli::FlagReader args(
        "quickstart",
        [&](std::FILE *out) {
            std::fprintf(out, "usage: %s [hosts >= 1] [vms >= 0]\n",
                         argv[0]);
        },
        argc, argv);
    if (argc > 3)
        args.refuse("too many operands");
    const int hosts =
        argc > 1 ? static_cast<int>(args.operandInteger(1, 1)) : 8;
    const int vms = argc > 2 ? static_cast<int>(args.operandInteger(2, 0))
                             : 40;

    stats::Table table("quickstart: 24 h diurnal enterprise day",
                       {"policy", "energy kWh", "vs NoPM", "satisfaction",
                        "SLA viol", "migrations", "power actions",
                        "avg hosts on"});

    double baseline_kwh = 0.0;
    for (const mgmt::PolicyKind policy :
         {mgmt::PolicyKind::NoPM, mgmt::PolicyKind::PmS3}) {
        mgmt::ScenarioConfig config;
        config.hostCount = hosts;
        config.vmCount = vms;
        config.manager = mgmt::makePolicy(policy);
        const mgmt::ScenarioResult result = mgmt::runScenario(config);

        if (policy == mgmt::PolicyKind::NoPM)
            baseline_kwh = result.metrics.energyKwh;
        table.addRow({toString(policy),
                      stats::fmt(result.metrics.energyKwh),
                      stats::fmtPercent(baseline_kwh > 0.0
                          ? result.metrics.energyKwh / baseline_kwh : 1.0),
                      stats::fmtPercent(result.metrics.satisfaction, 2),
                      stats::fmtPercent(result.metrics.violationFraction, 2),
                      std::to_string(result.metrics.migrations),
                      std::to_string(result.metrics.powerActions),
                      stats::fmt(result.metrics.averageHostsOn, 1)});
    }

    table.print(std::cout);
    std::printf("\nLow-latency states let the manager chase the diurnal "
                "trough:\nPM+S3 should land well under NoPM energy with "
                "satisfaction near 100%%.\n");
    return 0;
}
