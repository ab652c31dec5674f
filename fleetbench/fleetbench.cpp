/**
 * @file
 * fleetbench — the fleet-day benchmark harness.
 *
 * Runs one workload for a wall-clock budget, one simulated fleet-day at a
 * time, and prints one JSON record per day on stdout plus a closing
 * record with the process's peak RSS. The workloads drive the library
 * only through its highest public entry points (mgmt::runScenario and
 * replay::ReplaySession), so a change inside src/ shows up here without
 * editing this file. run.py builds this program, checks every day's
 * statistics and reduces the records to the benchmark's metrics.
 *
 * Usage:
 *   fleetbench --workload NAME --seed N --threads T --seconds S
 *              --trace 0|1 --work-dir DIR
 *
 * --trace 0 times untraced days only. --trace 1 spends the first half of
 * the budget on untraced days and the second half on days with the
 * self-profiler on, so the record set carries both bases of the tracing
 * overhead. Every mode runs at least one day of each kind it asks for,
 * after one untimed warm-up day that is printed but marked as such.
 *
 * Each day is bracketed by runs of a fixed calibration kernel compiled
 * into this file; the day record carries the mean of the two kernel
 * times, so run.py can correct the day's times for the host's speed at
 * that moment (see README.md, "Host-speed correction").
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "replay/session.hpp"
#include "replay/trace_file.hpp"
#include "simcore/random.hpp"
#include "simcore/thread_pool.hpp"
#include "telemetry/profiler.hpp"

namespace {

using namespace vpm;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t
nsSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned threads = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "fleetbench: %s\nusage: fleetbench --workload "
                 "consolidation_day|governor_fleet|trace_replay --seed N "
                 "--threads T --seconds S --trace 0|1 --work-dir DIR\n",
                 why.c_str());
    std::exit(2);
}

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "fleetbench: %s\n", why.c_str());
    std::exit(1);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--threads") {
            args.threads =
                static_cast<unsigned>(std::strtoul(value.c_str(), &end, 10));
            if (args.threads < 1 || args.threads > 64)
                usage("--threads must be in [1, 64]");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (!(args.seconds >= 0.0))
                usage("--seconds must be >= 0");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && (*end != '\0' || end == value.c_str()))
            usage("malformed number for " + flag + ": " + value);
    }
    if (args.workload != "consolidation_day" &&
        args.workload != "governor_fleet" && args.workload != "trace_replay")
        usage("unknown workload '" + args.workload + "'");
    return args;
}

/** What one simulated fleet-day produced. */
struct DayRecord
{
    double setupS = 0.0;
    double writeS = 0.0; ///< TraceFileWriter calls (part of setupS)
    double openS = 0.0;  ///< ReplaySession::create (part of setupS)
    double wallS = 0.0;  ///< the timed run
    double cpuS = 0.0;
    double calibS = 0.0; ///< mean calibration time around the day
    int hosts = 0;
    double simSeconds = 0.0;
    std::uint64_t chunkLoads = 0;
    std::uint64_t fileChunks = 0;
    /** Wall ns per evaluation interval of the run. */
    std::vector<std::int64_t> intervalNs;
    mgmt::ScenarioResult result;
};

// ---------------------------------------------------------------------
// consolidation_day: runScenario, PM+S3 over the enterprise mix.
// ---------------------------------------------------------------------

constexpr int kConsolidationHosts = 1024;
constexpr int kConsolidationVmsPerHost = 5;

DayRecord
consolidationDay(const Args &args, bool traced)
{
    mgmt::ScenarioConfig config;
    config.hostCount = kConsolidationHosts;
    config.vmCount = kConsolidationHosts * kConsolidationVmsPerHost;
    config.duration = sim::SimTime::hours(24.0);
    config.seed = args.seed;
    config.manager = mgmt::makePolicy(mgmt::PolicyKind::PmS3);
    // The F7 scale-out knobs: management traffic per cycle grows with
    // the fleet, as a real DRS instance's would.
    config.manager.maxMigrationsPerCycle =
        std::max(10, kConsolidationHosts / 2);
    config.manager.maxEvacuationsPerCycle =
        std::max(1, kConsolidationHosts / 16);

    // The scenario builds its fleet internally; the first evaluation
    // probe marks the simulation as ready, and each later probe closes
    // one evaluation interval.
    DayRecord day;
    bool ready = false;
    Clock::time_point mark;
    telemetry::Profiler::instance().setEnabled(traced);
    const Clock::time_point start = Clock::now();
    config.evaluationProbe = [&](const dc::Cluster &, sim::SimTime) {
        if (!ready) {
            day.setupS = secondsSince(start);
            ready = true;
        } else {
            day.intervalNs.push_back(nsSince(mark));
        }
        mark = Clock::now();
    };

    const double cpu0 = cpuSeconds();
    day.result = mgmt::runScenario(config);
    day.wallS = secondsSince(start);
    day.cpuS = cpuSeconds() - cpu0;
    day.hosts = config.hostCount;
    day.simSeconds = config.duration.toSeconds();
    return day;
}

// ---------------------------------------------------------------------
// Replay workloads: a generated vpm-trace-1 file + a ReplaySession day.
// ---------------------------------------------------------------------

constexpr int kGovernorHosts = 20000;
constexpr int kGovernorVmsPerHost = 10;
constexpr int kGovernorSeries = 16;

constexpr int kReplayHosts = 1000;
constexpr int kReplayVmsPerHost = 10;
constexpr double kReplaySampleS = 300.0;
constexpr std::uint32_t kSamplesPerChunk = 64;
constexpr std::uint64_t kReplayWindowBytes = 1ull << 20;

/** governor_fleet: a few shared day/night plateaus with staggered ramps,
 *  so every series stays cached and decoding is nearly free. */
void
writePlateauTrace(replay::TraceFileWriter &writer, sim::Rng &rng)
{
    for (int g = 0; g < kGovernorSeries; ++g) {
        const double night = rng.uniform(0.10, 0.20);
        const double day = rng.uniform(0.90, 0.95);
        const double rise_h = 6.0 + 0.25 * g + rng.uniform(0.0, 0.25);
        const double fall_h = 18.0 + 0.25 * g + rng.uniform(0.0, 0.25);
        const auto vm = static_cast<std::uint32_t>(g);
        writer.append(vm, 0, night);
        writer.append(vm, static_cast<std::int64_t>(rise_h * 3600e6), day);
        writer.append(vm, static_cast<std::int64_t>(fall_h * 3600e6), night);
    }
}

/** trace_replay: one jittered day/night series per VM, sampled every
 *  evaluation interval, so every interval crosses a breakpoint and the
 *  decoded working set outgrows the chunk window. */
void
writeDenseTrace(replay::TraceFileWriter &writer, sim::Rng &rng, int vms)
{
    const auto samples = static_cast<std::int64_t>(86400.0 / kReplaySampleS);
    for (int v = 0; v < vms; ++v) {
        const double night = rng.uniform(0.10, 0.20);
        const double day = rng.uniform(0.60, 0.80);
        const double rise_h = 6.0 + rng.uniform(0.0, 4.0);
        const double fall_h = 18.0 + rng.uniform(0.0, 4.0);
        for (std::int64_t s = 0; s < samples; ++s) {
            const double t_s = static_cast<double>(s) * kReplaySampleS;
            const double t_h = t_s / 3600.0;
            const double base = (t_h >= rise_h && t_h < fall_h) ? day : night;
            writer.append(static_cast<std::uint32_t>(v),
                          static_cast<std::int64_t>(t_s * 1e6),
                          base + rng.uniform(-0.03, 0.03));
        }
    }
}

DayRecord
replayDay(const Args &args, bool traced)
{
    const bool governor = args.workload == "governor_fleet";
    const int hosts = governor ? kGovernorHosts : kReplayHosts;
    const int vms =
        hosts * (governor ? kGovernorVmsPerHost : kReplayVmsPerHost);
    const std::string path =
        (std::filesystem::path(args.workDir) /
         (args.workload + "_" + std::to_string(args.seed) + "_" +
          std::to_string(getpid()) + ".vpmtrc"))
            .string();

    DayRecord day;
    const Clock::time_point start = Clock::now();
    {
        const auto series =
            static_cast<std::uint32_t>(governor ? kGovernorSeries : vms);
        replay::TraceFileWriter writer(path, series, 10000,
                                       kSamplesPerChunk);
        if (!writer.ok())
            die("cannot write trace file " + path);
        sim::Rng rng(args.seed);
        if (governor)
            writePlateauTrace(writer, rng);
        else
            writeDenseTrace(writer, rng, vms);
        std::string error;
        if (!writer.finish(&error))
            die("trace write failed: " + error);
    }
    day.writeS = secondsSince(start);

    replay::ReplaySpec spec;
    spec.name = args.workload;
    spec.tracePath = path;
    spec.hosts = hosts;
    spec.vms = vms;
    spec.durationHours = 24.0;
    spec.policy = governor ? "hier" : "joint";
    spec.hierarchical = governor;
    spec.governorPeriodS = 300.0;
    spec.seed = args.seed;
    if (!governor)
        spec.windowBytes = kReplayWindowBytes;

    const Clock::time_point open_start = Clock::now();
    std::string error;
    std::unique_ptr<replay::ReplaySession> session =
        replay::ReplaySession::create(spec, &error);
    if (!session)
        die("ReplaySession::create: " + error);
    day.openS = secondsSince(open_start);
    day.setupS = secondsSince(start);

    telemetry::Profiler::instance().setEnabled(traced);
    const double cpu0 = cpuSeconds();
    const Clock::time_point run_start = Clock::now();
    const sim::SimTime step = sim::SimTime::seconds(spec.evalIntervalS);
    for (sim::SimTime t = step; t < session->duration(); t = t + step) {
        const Clock::time_point mark = Clock::now();
        session->runTo(t);
        day.intervalNs.push_back(nsSince(mark));
    }
    day.result = session->finish();
    day.wallS = secondsSince(run_start);
    day.cpuS = cpuSeconds() - cpu0;
    day.hosts = hosts;
    day.simSeconds = session->duration().toSeconds();

    const replay::TraceFile &trace = session->trace();
    day.chunkLoads = trace.chunkLoads();
    const std::uint32_t per_chunk = trace.info().samplesPerChunk;
    for (std::uint32_t v = 0; v < trace.info().vmCount; ++v)
        day.fileChunks += (trace.vmSampleCount(v) + per_chunk - 1) / per_chunk;

    session.reset();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return day;
}

// ---------------------------------------------------------------------
// Output: one JSON object per line.
// ---------------------------------------------------------------------

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

/** Zone names are string literals from the program's sources; escape
 *  the two JSON-significant characters anyway. */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
printDay(const DayRecord &day, bool traced, bool warmup)
{
    const mgmt::ScenarioResult &r = day.result;
    std::string out = "{\"kind\": \"day\", \"traced\": ";
    out += traced ? "true" : "false";
    out += ", \"warmup\": ";
    out += warmup ? "true" : "false";
    out += ", \"calib_s\": " + num(day.calibS);
    out += ", \"setup_s\": " + num(day.setupS);
    out += ", \"write_s\": " + num(day.writeS);
    out += ", \"open_s\": " + num(day.openS);
    out += ", \"wall_s\": " + num(day.wallS);
    out += ", \"cpu_s\": " + num(day.cpuS);
    out += ", \"hosts\": " + std::to_string(day.hosts);
    out += ", \"sim_s\": " + num(day.simSeconds);
    out += ", \"stats\": {\"energy_kwh\": " + num(r.metrics.energyKwh);
    out += ", \"satisfaction\": " + num(r.metrics.satisfaction);
    out += ", \"sla_violation_fraction\": " + num(r.metrics.violationFraction);
    out += ", \"migrations\": " + num(r.metrics.migrations);
    out += ", \"power_actions\": " + num(r.metrics.powerActions);
    out += ", \"sleeps\": " + num(r.manager.sleepsIssued);
    out += ", \"wakes\": " + num(r.manager.wakesIssued);
    out += ", \"idle_transitions\": " + num(r.idleTransitions);
    out += ", \"avg_hosts_on\": " + num(r.metrics.averageHostsOn) + "}";
    out += ", \"events\": " + num(r.eventsProcessed);
    out += ", \"chunk_loads\": " + num(day.chunkLoads);
    out += ", \"file_chunks\": " + num(day.fileChunks);
    out += ", \"interval_ns\": [";
    for (std::size_t i = 0; i < day.intervalNs.size(); ++i)
        out += (i ? "," : "") + std::to_string(day.intervalNs[i]);
    out += "]";

    if (traced) {
        // The whole-process zone tree (worker threads folded in) and the
        // per-event-label dispatch table, read through the public API.
        const telemetry::Profiler &prof = telemetry::Profiler::instance();
        const std::vector<telemetry::ZoneNode> nodes = prof.mergedNodes();
        out += ", \"zones\": [";
        for (std::size_t i = 1; i < nodes.size(); ++i) {
            const telemetry::ZoneNode &n = nodes[i];
            out += (i > 1 ? ", [" : "[") + quote(n.name) + ", " +
                   std::to_string(n.parent) + ", " + num(n.calls) + ", " +
                   num(n.inclusiveNs) + ", " + num(n.exclusiveNs()) + "]";
        }
        out += "], \"dispatch\": {";
        bool first = true;
        for (const telemetry::DispatchStats &d : prof.dispatchStats()) {
            out += (first ? "" : ", ") + quote(d.label) + ": [" +
                   num(d.count) + ", " + num(d.totalNs) + "]";
            first = false;
        }
        out += "}";
    }
    out += "}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
}

/** One day; with @p traced the profiler records its timed run (for
 *  consolidation_day that includes the fleet build inside runScenario). */
DayRecord
runDay(const Args &args, bool traced)
{
    telemetry::Profiler &prof = telemetry::Profiler::instance();
    prof.reset();
    DayRecord day = args.workload == "consolidation_day"
                        ? consolidationDay(args, traced)
                        : replayDay(args, traced);
    prof.setEnabled(false);
    return day;
}

/**
 * The calibration kernel: a fixed amount of simulator-like work (a
 * binary-heap event loop whose handlers update a 512 KiB state table and
 * evaluate a cosine) that no change to the simulator can alter. Returns
 * its wall seconds, ~35 ms on the reference host.
 */
double
calibrate()
{
    constexpr std::size_t kTableSize = 1 << 16;
    constexpr std::uint32_t kPending = 4096;
    constexpr int kSteps = 400000;
    static std::vector<double> table(kTableSize, 1.0);
    std::vector<std::pair<double, std::uint32_t>> heap;
    heap.reserve(kPending + 1);
    std::uint64_t x = 88172645463325252ull;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const Clock::time_point start = Clock::now();
    for (std::uint32_t i = 0; i < kPending; ++i) {
        heap.emplace_back(static_cast<double>(next() % 1000000), i);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    double acc = 0.0;
    for (int step = 0; step < kSteps; ++step) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const auto [t, id] = heap.back();
        heap.pop_back();
        const std::size_t slot =
            (id * 2654435761u + next()) & (kTableSize - 1);
        table[slot] = table[slot] * 0.999 + std::cos(t * 1e-6);
        acc += table[slot];
        heap.emplace_back(t + static_cast<double>(next() % 5000), id);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    const double seconds = secondsSince(start);
    // Keep the result observable so the loop is not optimised away.
    volatile double sink = acc;
    (void)sink;
    return seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    sim::setGlobalThreads(args.threads);
    std::error_code ec;
    std::filesystem::create_directories(args.workDir, ec);

    // One untimed warm-up day (page faults, allocator growth, first trace
    // file; skipped by --seconds 0, which asks for a single day), then
    // untraced days fill the budget (--trace 0) or its first half
    // (--trace 1) and traced days fill the rest. At least one of each.
    calibrate();
    double before = calibrate();
    const auto runAndPrint = [&](bool traced, bool warmup) {
        DayRecord record = runDay(args, traced);
        const double after = calibrate();
        record.calibS = (before + after) / 2.0;
        before = after;
        printDay(record, traced, warmup);
    };
    if (args.seconds > 0.0)
        runAndPrint(false, true);
    const double untraced_budget =
        args.trace ? args.seconds / 2.0 : args.seconds;
    const Clock::time_point start = Clock::now();
    do {
        runAndPrint(false, false);
    } while (secondsSince(start) < untraced_budget);
    if (args.trace) {
        do {
            runAndPrint(true, false);
        } while (secondsSince(start) < args.seconds);
    }

    std::printf("{\"kind\": \"process\", \"peak_rss_kb\": %" PRId64 "}\n",
                static_cast<std::int64_t>(telemetry::Profiler::peakRssKb()));
    return 0;
}
