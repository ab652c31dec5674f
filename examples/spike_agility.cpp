/**
 * @file
 * Example: watch the cluster absorb a load spike, minute by minute.
 *
 * Consolidates a lightly loaded cluster, then fires a fleet-wide spike and
 * prints a minute-granularity log around it: demand, granted CPU, hosts in
 * each power phase. Run it twice — once with s3, once with s5 — to see the
 * agility difference that motivates the paper.
 *
 * Usage: spike_agility [s3|s5]
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>

#include "core/scenario.hpp"
#include "stats/table.hpp"
#include "workload/demand_trace.hpp"

int
main(int argc, char **argv)
{
    using namespace vpm;

    mgmt::PolicyKind policy = mgmt::PolicyKind::PmS3;
    if (argc > 1) {
        if (std::strcmp(argv[1], "s5") == 0) {
            policy = mgmt::PolicyKind::PmS5;
        } else if (std::strcmp(argv[1], "s3") != 0) {
            std::fprintf(stderr, "usage: %s [s3|s5]\n", argv[0]);
            return 1;
        }
    }

    const sim::SimTime spike_start = sim::SimTime::hours(4.0);

    mgmt::ScenarioConfig config;
    config.hostCount = 8;
    config.vmCount = 40;
    config.duration = sim::SimTime::hours(5.0);
    config.mix.loadScale = 0.35;
    config.manager = mgmt::makePolicy(policy);
    config.manager.period = sim::SimTime::minutes(1.0);
    config.transformFleet =
        [&](std::vector<workload::VmWorkloadSpec> &fleet) {
            for (auto &spec : fleet) {
                spec.trace = std::make_shared<workload::SpikeTrace>(
                    spec.trace, spike_start, sim::SimTime::hours(1.0),
                    0.85);
            }
        };

    stats::Table log(std::string("minute log around the spike (") +
                         toString(policy) + ")",
                     {"t-rel", "demand MHz", "granted MHz", "served",
                      "on", "asleep", "waking"});
    config.evaluationProbe = [&](const dc::Cluster &cluster,
                                 sim::SimTime now) {
        // Log from 3 minutes before the spike to 15 minutes after.
        if (now < spike_start - sim::SimTime::minutes(3.0) ||
            now > spike_start + sim::SimTime::minutes(15.0)) {
            return;
        }
        double demand = 0.0, granted = 0.0;
        for (const auto &vm_ptr : cluster.vms()) {
            demand += vm_ptr->currentDemandMhz();
            granted += vm_ptr->grantedMhz();
        }
        int waking = 0;
        for (const auto &host_ptr : cluster.hosts()) {
            waking += host_ptr->powerFsm().phase() ==
                              power::PowerPhase::Exiting
                          ? 1 : 0;
        }
        std::string offset = now >= spike_start ? "+" : "";
        offset += (now - spike_start).toString();
        log.addRow({offset,
                    stats::fmt(demand, 0), stats::fmt(granted, 0),
                    stats::fmtPercent(demand > 0 ? granted / demand : 1.0,
                                      1),
                    std::to_string(cluster.hostsOn()),
                    std::to_string(cluster.hostsAsleep()),
                    std::to_string(waking)});
    };

    const mgmt::ScenarioResult result = mgmt::runScenario(config);
    log.print(std::cout);

    std::printf("\noverall satisfaction: %.2f%%, worst per-interval "
                "performance: %.3f\n",
                result.metrics.satisfaction * 100.0,
                result.metrics.worstPerformance);
    std::printf("Try the other state (./spike_agility %s) and compare the "
                "'served' column.\n",
                policy == mgmt::PolicyKind::PmS3 ? "s5" : "s3");
    return 0;
}
