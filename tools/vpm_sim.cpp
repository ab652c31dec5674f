/**
 * @file
 * vpm_sim — command-line experiment runner.
 *
 * One binary to run any scenario the library supports without writing
 * C++: pick a policy, cluster size, workload shape and duration; get the
 * run metrics on stdout and, optionally, a per-minute time series as CSV
 * for plotting.
 *
 * Examples:
 *   vpm_sim --policy s3 --hosts 16 --vms 80 --hours 48
 *   vpm_sim --policy s5 --load-scale 0.5 --seed 7 --csv run.csv
 *   vpm_sim --policy s3 --churn 6 --dvfs --hours 24
 *   vpm_sim --policy joint --hosts 16 --vms 80
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/scenario.hpp"
#include "power/spec_file.hpp"
#include "simcore/thread_pool.hpp"
#include "stats/table.hpp"
#include "telemetry/cli.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace vpm;

struct Options
{
    std::string policy = "s3"; ///< a policy registry name
    int hosts = 8;
    int vms = 40;
    double hours = 24.0;
    double loadScale = 1.0;
    std::uint64_t seed = 42;
    double managerMinutes = 5.0;
    double churnPerHour = 0.0;
    bool dvfs = false;
    bool legacyMix = false;
    double weekendFactor = 1.0;
    int threads = 1;
    std::string csvPath;
    std::string specPath;
    std::string timeseriesPath;
    std::string watchdogPath;
};

[[noreturn]] void
usage(const char *argv0, int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: %s [options]\n"
        "  --policy <name>       management policy (default s3), one of\n"
        "                        %s\n"
        "                        (cstates, joint and hier exclude --dvfs)\n"
        "  --hosts <n>           cluster size (default 8)\n"
        "  --vms <n>             static fleet size (default 40)\n"
        "  --hours <h>           simulated duration (default 24)\n"
        "  --load-scale <x>      workload intensity multiplier "
        "(default 1.0)\n"
        "  --seed <n>            workload seed (default 42)\n"
        "  --period <min>        manager period in minutes (default 5)\n"
        "  --churn <rate>        VM arrivals per hour (default 0 = off)\n"
        "  --dvfs                enable the DVFS governor\n"
        "  --legacy-mix          half the hosts are 2009-class servers\n"
        "  --weekend <factor>    weekend demand multiplier for diurnal "
        "VMs\n"
        "  --spec <path>         host power-spec file (see "
        "power/spec_file.hpp)\n"
        "  --threads <n>         evaluation worker threads, 1-64 (default "
        "1; results\n"
        "                        are bit-identical at any value)\n"
        "  --csv <path>          write a per-minute time series CSV\n"
        "  --timeseries <path>   write a compressed vpm-ts-1 snapshot\n"
        "                        (+ <path>.prom), refreshed periodically;\n"
        "                        inspect with vpm_top\n"
        "  --watchdog <rules>    JSON watchdog rules evaluated as buckets\n"
        "                        seal (implies --timeseries store)\n"
        "  --help                this text\n",
        argv0, mgmt::policyNameList().c_str());
    std::exit(code);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    const cli::FlagReader flags(
        "vpm_sim", [&](std::FILE *) { usage(argv[0], 2); }, argc, argv);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            usage(argv[0], 0);
        else if (arg == "--policy")
            opts.policy = flags.value(i);
        else if (arg == "--hosts")
            opts.hosts = static_cast<int>(flags.integer(i, 1));
        else if (arg == "--vms")
            opts.vms = static_cast<int>(flags.integer(i, 0));
        else if (arg == "--hours")
            opts.hours = flags.number(i, 1e-9);
        else if (arg == "--load-scale")
            opts.loadScale = flags.number(i, 0.0);
        else if (arg == "--seed")
            opts.seed = static_cast<std::uint64_t>(
                flags.integer(i, 0, LLONG_MAX));
        else if (arg == "--period")
            opts.managerMinutes = flags.number(i, 1.0);
        else if (arg == "--churn")
            opts.churnPerHour = flags.number(i, 0.0);
        else if (arg == "--dvfs")
            opts.dvfs = true;
        else if (arg == "--legacy-mix")
            opts.legacyMix = true;
        else if (arg == "--weekend")
            opts.weekendFactor = flags.number(i, 0.0);
        else if (arg == "--threads")
            opts.threads =
                static_cast<int>(flags.integer(i, 1, cli::kMaxThreads));
        else if (arg == "--csv")
            opts.csvPath = flags.value(i);
        else if (arg == "--spec")
            opts.specPath = flags.value(i);
        else if (arg == "--timeseries")
            opts.timeseriesPath = flags.value(i);
        else if (arg == "--watchdog")
            opts.watchdogPath = flags.value(i);
        else
            flags.refuse("unknown option '" + arg + "'");
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);

    mgmt::ScenarioConfig config;
    config.hostCount = opts.hosts;
    config.vmCount = opts.vms;
    config.duration = sim::SimTime::hours(opts.hours);
    config.mix.loadScale = opts.loadScale;
    config.mix.weekendFactor = opts.weekendFactor;
    config.seed = opts.seed;
    if (!opts.specPath.empty())
        config.powerSpec = power::loadHostSpec(opts.specPath);

    // Policy errors are usage errors, caught before anything runs: an
    // unknown name, or a joint governor (which owns the speed knob)
    // combined with the DVFS governor.
    const std::optional<mgmt::PolicyPreset> preset =
        mgmt::applyPolicy(config, opts.policy);
    if (!preset) {
        std::fprintf(stderr, "vpm_sim: unknown policy '%s'\n\n",
                     opts.policy.c_str());
        usage(argv[0], 2);
    }
    if (preset->joint && opts.dvfs) {
        std::fprintf(stderr,
                     "vpm_sim: --policy %s runs the joint governor, which "
                     "owns the speed knob; drop --dvfs\n\n",
                     opts.policy.c_str());
        usage(argv[0], 2);
    }

    sim::setGlobalThreads(static_cast<unsigned>(opts.threads));

    // Live telemetry: enable the downsampling store (and watchdog rules)
    // before any simulator objects exist, like the benches do.
    if (!opts.timeseriesPath.empty() || !opts.watchdogPath.empty()) {
        telemetry::TelemetryConfig tel_config;
        tel_config.enabled = true;
        telemetry::global().configure(tel_config);
        if (!opts.timeseriesPath.empty())
            telemetry::global().setSnapshotTarget(opts.timeseriesPath);
        if (!opts.watchdogPath.empty()) {
            std::ifstream rules_in(opts.watchdogPath);
            if (!rules_in) {
                std::fprintf(stderr, "cannot read watchdog rules '%s'\n",
                             opts.watchdogPath.c_str());
                return 1;
            }
            std::ostringstream rules;
            rules << rules_in.rdbuf();
            std::string error;
            if (!telemetry::global().watchdog().configure(rules.str(),
                                                          &error)) {
                std::fprintf(stderr, "--watchdog %s: %s\n",
                             opts.watchdogPath.c_str(), error.c_str());
                return 1;
            }
        }
    }

    config.manager.period = sim::SimTime::minutes(opts.managerMinutes);
    if (opts.legacyMix) {
        config.heterogeneousSpecs = {power::enterpriseBlade2013(),
                                     power::legacyServer2009()};
        config.manager.heterogeneityAware = true;
    }
    if (opts.churnPerHour > 0.0) {
        dc::ProvisioningConfig churn;
        churn.arrivalsPerHour = opts.churnPerHour;
        churn.mix.loadScale = opts.loadScale;
        config.provisioning = churn;
    }
    if (opts.dvfs)
        config.dvfs = mgmt::DvfsConfig{};

    stats::Table series("time series",
                        {"minute", "load", "hosts_on", "asleep",
                         "cluster_w"});
    if (!opts.csvPath.empty()) {
        config.evaluationProbe = [&](const dc::Cluster &cluster,
                                     sim::SimTime now) {
            series.addRow(
                {stats::fmt(now.toMinutes(), 0),
                 stats::fmt(cluster.totalVmDemandMhz() /
                            cluster.totalCpuCapacityMhz(), 4),
                 std::to_string(cluster.hostsOn()),
                 std::to_string(cluster.hostsAsleep()),
                 stats::fmt(cluster.totalPowerWatts(), 1)});
        };
    }

    const mgmt::ScenarioResult result = mgmt::runScenario(config);

    stats::Table summary("vpm_sim: " + preset->label,
                         {"metric", "value"});
    summary.addRow({"simulated hours",
                    stats::fmt(result.metrics.simulatedHours, 1)});
    summary.addRow({"offered load",
                    stats::fmtPercent(result.offeredLoadFraction, 1)});
    summary.addRow({"energy kWh", stats::fmt(result.metrics.energyKwh)});
    summary.addRow({"ideal proportional kWh",
                    stats::fmt(result.idealProportionalKwh)});
    summary.addRow({"mean power W",
                    stats::fmt(result.metrics.averagePowerWatts, 0)});
    summary.addRow({"satisfaction",
                    stats::fmtPercent(result.metrics.satisfaction, 2)});
    summary.addRow({"SLA violations",
                    stats::fmtPercent(result.metrics.violationFraction,
                                      2)});
    summary.addRow({"avg hosts on",
                    stats::fmt(result.metrics.averageHostsOn, 1)});
    summary.addRow({"migrations",
                    std::to_string(result.metrics.migrations)});
    summary.addRow({"power actions",
                    std::to_string(result.metrics.powerActions)});
    if (opts.churnPerHour > 0.0) {
        summary.addRow({"VM arrivals",
                        std::to_string(result.vmArrivals)});
        summary.addRow({"mean placement wait s",
                        stats::fmt(result.meanPlacementDelaySeconds, 1)});
    }
    if (opts.dvfs) {
        summary.addRow({"frequency changes",
                        std::to_string(result.dvfsTransitions)});
    }
    summary.print(std::cout);

    if (!opts.csvPath.empty()) {
        series.writeCsv(opts.csvPath);
        std::printf("\ntime series written to %s (%zu rows)\n",
                    opts.csvPath.c_str(), series.rows());
    }

    if (!opts.timeseriesPath.empty()) {
        if (telemetry::global().writeSnapshotFiles()) {
            std::printf("\ntimeseries snapshot written: %s (+ .prom "
                        "text); inspect with vpm_top\n",
                        opts.timeseriesPath.c_str());
        } else {
            std::fprintf(stderr, "cannot write timeseries snapshot '%s'\n",
                         opts.timeseriesPath.c_str());
            return 1;
        }
        const std::uint64_t alerts =
            telemetry::global().watchdog().alertCount();
        if (alerts > 0)
            std::printf("watchdog: %llu alert(s) raised\n",
                        static_cast<unsigned long long>(alerts));
    }
    return 0;
}
