/**
 * @file
 * F9 — Sensitivity to power-state exit latency (the paper's thesis knob).
 *
 * Paper analogue: the argument-closing sweep — hold the management policy
 * fixed and vary only the sleep state's exit latency from S3-like seconds
 * to S5-like minutes and beyond. This isolates how much of the end-to-end
 * result is attributable to state latency itself.
 *
 * Shape to reproduce: at seconds-scale latency, deep savings with intact
 * SLA; as latency grows, either SLA degrades (fixed-aggressiveness
 * manager caught mid-wake) or — in the paper's framing — the manager must
 * get conservative and the savings evaporate.
 */

#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "power/server_models.hpp"
#include "workload/demand_trace.hpp"

namespace {

void
runBody()
{
    using namespace vpm;

    bench::banner("F9", "sensitivity: sleep-state exit latency",
                  "8 hosts, 40 VMs at 50% load scale with four 30-min "
                  "surges to 80% (t=3h,9h,15h,21h); identical manager, "
                  "synthetic state with swept exit latency");

    mgmt::ScenarioConfig base;
    base.hostCount = 8;
    base.vmCount = 40;
    base.duration = sim::SimTime::hours(24.0);
    base.mix.loadScale = 0.5;
    // Recurring surges outside the predictor's memory: the situation the
    // paper's agility argument is about. Every VM surges together.
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

    stats::Table table("fixed PM policy vs exit latency of its only state",
                       {"exit latency", "energy vs NoPM", "satisfaction",
                        "SLA viol", "worst perf", "pwr actions"});

    for (const double exit_s : {1.0, 5.0, 15.0, 45.0, 120.0, 300.0,
                                600.0}) {
        mgmt::ScenarioConfig config = base;
        config.powerSpec =
            power::bladeWithSyntheticState(sim::SimTime::seconds(exit_s));
        mgmt::applyPolicy(config, "s3"); // sleeps in SYNTH on this blade
        config.manager.period = sim::SimTime::minutes(1.0);
        const mgmt::ScenarioResult result = mgmt::runScenario(config);

        table.addRow({sim::SimTime::seconds(exit_s).toString(),
                      stats::fmtPercent(result.metrics.energyKwh /
                                        baseline_kwh, 1),
                      stats::fmtPercent(result.metrics.satisfaction, 2),
                      stats::fmtPercent(result.metrics.violationFraction,
                                        2),
                      stats::fmt(result.metrics.worstPerformance, 3),
                      std::to_string(result.metrics.powerActions)});
    }
    table.print(std::cout);

    std::cout << "\nTakeaway: the same manager that is safe with a 15 s "
                 "state visibly hurts the\nworkload once exits take "
                 "minutes — latency, not policy cleverness, is what\n"
                 "gates aggressive virtualization power management.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const vpm::bench::BenchArgs args =
        vpm::bench::parseArgs("f9_latency_sweep", argc, argv);
    return vpm::bench::runBench(args, runBody);
}
