/**
 * @file
 * F11 — Multi-level idle hierarchy vs single-mechanism power management.
 *
 * Paper analogue: the AgilePkgC-style observation that server idle power
 * has two very different levers — seconds-scale full-system sleep (S3)
 * and microsecond-scale C-states — and that a joint speed/sleep policy
 * can combine them: C-states harvest the short idle gaps consolidation
 * leaves behind, S3 harvests the hosts consolidation empties entirely.
 *
 * Grid: {S3-only, C-states-only, joint} × the F9 exit-latency axis for
 * the deep state. Expected shape: S3-only degrades as exits get slow
 * (F9's result); C-only is latency-immune but leaves the emptied hosts
 * burning uncore power; the joint policy should be no worse than either
 * at every point and strictly better where their weaknesses differ.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "power/server_models.hpp"
#include "workload/demand_trace.hpp"

namespace {

void
runBody(const vpm::bench::BenchArgs &args)
{
    using namespace vpm;

    bench::banner(
        "F11", "idle-state hierarchy: S3-only vs C-states-only vs joint",
        std::string("8 hosts, 40 VMs at 50% load scale with 30-min surges "
                    "to 80%; calibrated C1/C6/PC6 hierarchy; deep-state "
                    "exit latency swept") +
            (args.quick ? " [--quick: 6 h day, 2 sweep points]" : ""));

    mgmt::ScenarioConfig base;
    base.hostCount = 8;
    base.vmCount = 40;
    base.duration = args.quick ? sim::SimTime::hours(6.0)
                               : sim::SimTime::hours(24.0);
    base.mix.loadScale = 0.5;
    // The F9 surge schedule: recurring spikes outside the predictor's
    // memory, so wake latency is on the critical path.
    base.transformFleet =
        [](std::vector<workload::VmWorkloadSpec> &fleet) {
            for (auto &spec : fleet) {
                for (const double hour : {3.0, 9.0, 15.0, 21.0}) {
                    spec.trace = std::make_shared<workload::SpikeTrace>(
                        spec.trace, sim::SimTime::hours(hour),
                        sim::SimTime::minutes(30.0), 0.80);
                }
            }
        };
    base.manager = mgmt::makePolicy(mgmt::PolicyKind::NoPM);
    const double baseline_kwh = mgmt::runScenario(base).metrics.energyKwh;
    bench::finishPolicyTrace(args.tracePath, "NoPM");

    bench::JsonReport report(args.jsonPath, "F11");

    stats::Table table("policy grid over deep-state exit latency",
                       {"exit latency", "policy", "energy kWh", "vs NoPM",
                        "satisfaction", "SLA viol", "pwr actions",
                        "idle trans", "speed trans"});

    const auto addRow = [&](const std::string &exit_label,
                            const std::string &policy,
                            const mgmt::ScenarioResult &result) {
        table.addRow({exit_label, policy,
                      stats::fmt(result.metrics.energyKwh),
                      stats::fmtPercent(result.metrics.energyKwh /
                                        baseline_kwh, 1),
                      stats::fmtPercent(result.metrics.satisfaction, 2),
                      stats::fmtPercent(result.metrics.violationFraction,
                                        2),
                      std::to_string(result.metrics.powerActions),
                      std::to_string(result.idleTransitions),
                      std::to_string(result.jointSpeedTransitions)});
    };

    const std::vector<double> sweep =
        args.quick ? std::vector<double>{15.0, 600.0}
                   : std::vector<double>{1.0, 15.0, 120.0, 600.0};

    int joint_wins = 0;
    for (const double exit_s : sweep) {
        const std::string at = "@" + sim::SimTime::seconds(exit_s).toString();

        // One rig per policy: the F9 blade with the synthetic deep state
        // at this exit latency and a 1-minute consolidation period.
        const auto run = [&](const char *policy) {
            mgmt::ScenarioConfig config = base;
            config.powerSpec = power::bladeWithSyntheticState(
                sim::SimTime::seconds(exit_s));
            mgmt::applyPolicy(config, policy);
            config.manager.period = sim::SimTime::minutes(1.0);
            return mgmt::runScenario(config);
        };

        // S3-only: the F9 configuration — consolidate and sleep whole
        // hosts through the synthetic deep state; no hierarchy attached.
        const mgmt::ScenarioResult s3_result = run("s3");
        bench::finishPolicyTrace(args.tracePath, "S3" + at);
        report.add("S3" + at, s3_result);
        addRow(sim::SimTime::seconds(exit_s).toString(), "S3-only",
               s3_result);

        // C-states-only: the SAME consolidating manager, but drained
        // hosts are parked (held On at the bottom of the hierarchy)
        // instead of slept — hardware whose only idle mechanism is
        // C-states. Immune to the swept exit latency, but parked hosts
        // never drop below the ~33 W full-descent floor.
        const mgmt::ScenarioResult c_result = run("cstates");
        bench::finishPolicyTrace(args.tracePath, "C" + at);
        report.add("C" + at, c_result);
        addRow("", "C-states-only", c_result);

        // Joint: the full stack. Drained hosts park first (instant
        // reclaim, ~33 W) and the oldest escalate to the deep S-state
        // (~12 W) once the reserve is full — the host-level tier of the
        // hierarchy — while the speed/sleep governor harvests the idle
        // gaps on the hosts still serving load.
        const mgmt::ScenarioResult j_result = run("joint");
        bench::finishPolicyTrace(args.tracePath, "Joint" + at);
        report.add("Joint" + at, j_result);
        addRow("", "joint", j_result);

        const bool wins =
            j_result.metrics.energyKwh <= s3_result.metrics.energyKwh &&
            j_result.metrics.energyKwh <= c_result.metrics.energyKwh &&
            j_result.metrics.violationFraction <=
                s3_result.metrics.violationFraction &&
            j_result.metrics.violationFraction <=
                c_result.metrics.violationFraction;
        if (wins)
            ++joint_wins;
    }
    table.print(std::cout);
    report.write();

    std::printf("\njoint dominates both single-mechanism policies "
                "(energy and SLA) at %d/%zu sweep points\n",
                joint_wins, sweep.size());
    std::cout << "\nTakeaway: C-states alone cap the savings (uncore stays "
                 "hot on emptied hosts),\nS3 alone pays for its savings in "
                 "SLA once exits take minutes. Stacking the\nhierarchy "
                 "under the sleep policy keeps the deep-sleep savings "
                 "while the\nmicrosecond states absorb the idle gaps "
                 "consolidation cannot close.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const vpm::bench::BenchArgs args =
        vpm::bench::parseArgs("f11_idle_hierarchy", argc, argv);
    return vpm::bench::runBench(args, [&] { runBody(args); });
}
