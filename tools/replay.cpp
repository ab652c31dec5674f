/**
 * @file
 * replay — production replay mode: stream recorded demand traces through
 * the simulator, checkpoint mid-run, restore with byte-exact verification,
 * and fork what-if policy branches off one checkpoint.
 *
 * Subcommands:
 *
 *     replay gen-trace --out <file.vpmtrc> [--vms <n>] [--hours <h>]
 *            [--seed <s>] [--load-scale <x>] [--sample-interval-s <s>]
 *            [--quantum <q>] [--chunk-samples <n>]
 *         Synthesize an enterprise-mix fleet and write its demand series
 *         as a vpm-trace-1 file (the stand-in for a production recorder).
 *
 *     replay run (--spec <spec.json> | --trace <file> [spec flags])
 *            [--checkpoint <file.vpmckpt> --checkpoint-hours <h>]
 *            [--json <out.json>] [--threads <n>]
 *         Run a replay session end to end; optionally snapshot a
 *         vpm-ckpt-1 checkpoint mid-run. The result JSON (metrics +
 *         state digest) is byte-identical at any --threads value.
 *
 *     replay resume --checkpoint <file.vpmckpt> [--json <out.json>]
 *            [--threads <n>] [--no-verify]
 *         Rebuild the checkpoint's session, re-execute to the capture
 *         time, byte-verify every state section, and run to the end.
 *
 *     replay branch --checkpoint <file.vpmckpt> --grid <manifest.json>
 *            --out <dir> [--threads <n>] [--no-verify]
 *         Fork one policy variant per grid cell off the checkpoint and
 *         race them, emitting a vpm-sweep-1 matrix plus reports — ready
 *         for sweep_compare and the Pareto gate.
 *
 *     replay inspect (--trace <file> | --checkpoint <file>)
 *         Print the artifact's header facts.
 *
 * Exit codes: 0 ok, 1 some branch cells failed, 2 usage error, 3 bad
 * input / runtime failure, 4 checkpoint verification failure.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "replay/checkpoint.hpp"
#include "replay/session.hpp"
#include "replay/trace_file.hpp"
#include "simcore/random.hpp"
#include "simcore/thread_pool.hpp"
#include "sweep/manifest.hpp"
#include "sweep/report.hpp"
#include "telemetry/cli.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/sweep_matrix.hpp"
#include "workload/mix.hpp"
#include "workload/trace_sampler.hpp"

namespace {

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: replay <subcommand> [options]\n"
        "  gen-trace --out <file> [--vms <n>] [--hours <h>] [--seed <s>]\n"
        "            [--load-scale <x>] [--sample-interval-s <s>]\n"
        "            [--quantum <q>] [--chunk-samples <n>]\n"
        "  run       (--spec <json> | --trace <file> [spec flags])\n"
        "            [--checkpoint <file> --checkpoint-hours <h>]\n"
        "            [--json <out>] [--threads <n>]\n"
        "            spec flags: --hosts --vms --policy --duration-hours\n"
        "            --eval-interval-s --manager-period-min\n"
        "            --exit-latency-s --loaded-fraction --hierarchical\n"
        "            --seed --window-bytes --governor-period-s\n"
        "  resume    --checkpoint <file> [--json <out>] [--threads <n>]\n"
        "            [--no-verify]\n"
        "  branch    --checkpoint <file> --grid <manifest> --out <dir>\n"
        "            [--threads <n>] [--no-verify]\n"
        "  inspect   (--trace <file> | --checkpoint <file>)\n"
        "--threads takes 1-64; --policy takes %s\n"
        "exit codes: 0 ok, 1 branch cells failed, 2 usage, 3 bad input,\n"
        "            4 verification failure\n",
        vpm::mgmt::policyNameList().c_str());
}

/** Deterministic result JSON: metrics that are byte-identical at any
 *  thread count, plus the state digest — the CI cmp artifact. */
void
writeResultJson(const vpm::replay::ReplaySession &session,
                const vpm::mgmt::ScenarioResult &result,
                std::uint64_t digest, std::ostream &out)
{
    char digest_hex[20];
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    using vpm::telemetry::exactNumber;
    const vpm::replay::ReplaySpec &spec = session.spec();
    out << "{\n";
    out << "  \"schema\": \"vpm-replay-result-1\",\n";
    out << "  \"name\": \"" << vpm::telemetry::jsonEscape(spec.name)
        << "\",\n";
    out << "  \"policy\": \"" << vpm::telemetry::jsonEscape(spec.policy)
        << "\",\n";
    out << "  \"hosts\": " << spec.hosts << ",\n";
    out << "  \"duration_hours\": " << exactNumber(spec.durationHours)
        << ",\n";
    out << "  \"seed\": " << spec.seed << ",\n";
    out << "  \"state_digest\": \"" << digest_hex << "\",\n";
    out << "  \"events_processed\": " << result.eventsProcessed << ",\n";
    out << "  \"metrics\": {\n";
    out << "    \"energy_kwh\": " << exactNumber(result.metrics.energyKwh)
        << ",\n";
    out << "    \"average_power_w\": "
        << exactNumber(result.metrics.averagePowerWatts) << ",\n";
    out << "    \"sla_violation_pct\": "
        << exactNumber(result.metrics.violationFraction * 100.0) << ",\n";
    out << "    \"satisfaction\": " << exactNumber(result.metrics.satisfaction)
        << ",\n";
    out << "    \"average_hosts_on\": "
        << exactNumber(result.metrics.averageHostsOn) << ",\n";
    out << "    \"migrations\": " << result.metrics.migrations << ",\n";
    out << "    \"power_actions\": " << result.metrics.powerActions
        << ",\n";
    out << "    \"offered_load\": " << exactNumber(result.offeredLoadFraction)
        << ",\n";
    out << "    \"ideal_proportional_kwh\": "
        << exactNumber(result.idealProportionalKwh) << ",\n";
    out << "    \"wakes\": " << result.wakes << ",\n";
    out << "    \"wake_p99_s\": " << exactNumber(result.wakeP99Seconds)
        << ",\n";
    out << "    \"idle_transitions\": " << result.idleTransitions << ",\n";
    out << "    \"joint_speed_transitions\": "
        << result.jointSpeedTransitions << ",\n";
    out << "    \"joint_idle_transitions\": "
        << result.jointIdleTransitions << ",\n";
    out << "    \"manager_cycles\": " << result.manager.cycles << ",\n";
    out << "    \"sleeps_issued\": " << result.manager.sleepsIssued
        << ",\n";
    out << "    \"wakes_issued\": " << result.manager.wakesIssued << "\n";
    out << "  }\n";
    out << "}\n";
}

int
cmdGenTrace(int argc, char **argv)
{
    const vpm::cli::FlagReader flags("replay", printUsage, argc, argv);
    std::string out_path;
    int vms = 100;
    double hours = 24.0;
    std::uint64_t seed = 42;
    double load_scale = 1.0;
    double sample_interval_s = 900.0;
    long long quantum = 10000;
    long long chunk_samples = 512;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out")
            out_path = flags.value(i);
        else if (arg == "--vms")
            vms = static_cast<int>(flags.integer(i, 1));
        else if (arg == "--hours")
            hours = flags.number(i, 1e-9);
        else if (arg == "--seed")
            seed = static_cast<std::uint64_t>(flags.integer(i, 0, LLONG_MAX));
        else if (arg == "--load-scale")
            load_scale = flags.number(i, 1e-9);
        else if (arg == "--sample-interval-s")
            sample_interval_s = flags.number(i, 1e-9);
        else if (arg == "--quantum")
            quantum = flags.integer(i, 1, UINT32_MAX);
        else if (arg == "--chunk-samples")
            chunk_samples = flags.integer(i, 2, UINT32_MAX);
        else
            flags.refuse("gen-trace: unknown option '" + arg + "'");
    }
    if (out_path.empty())
        flags.refuse("gen-trace needs --out");

    vpm::sim::Rng rng(seed);
    vpm::workload::MixConfig mix;
    mix.loadScale = load_scale;
    const std::vector<vpm::workload::VmWorkloadSpec> fleet =
        vpm::workload::makeEnterpriseMix(rng, vms, mix);

    vpm::replay::TraceFileWriter writer(
        out_path, static_cast<std::uint32_t>(vms),
        static_cast<std::uint32_t>(quantum),
        static_cast<std::uint32_t>(chunk_samples));
    if (!writer.ok()) {
        std::fprintf(stderr, "replay: cannot write '%s'\n",
                     out_path.c_str());
        return 3;
    }
    const vpm::sim::SimTime end = vpm::sim::SimTime::hours(hours);
    const vpm::sim::SimTime interval =
        vpm::sim::SimTime::seconds(sample_interval_s);
    for (std::uint32_t v = 0; v < static_cast<std::uint32_t>(vms); ++v) {
        const std::vector<vpm::workload::TraceSample> samples =
            vpm::workload::sampleTrace(*fleet[v].trace, vpm::sim::SimTime(),
                                       end, interval);
        for (const vpm::workload::TraceSample &sample : samples)
            writer.append(v, sample.tUs, sample.utilization);
    }
    std::string error;
    if (!writer.finish(&error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }
    std::printf("replay: wrote '%s': %d VMs, %.17g h, %llu breakpoints\n",
                out_path.c_str(), vms, hours,
                static_cast<unsigned long long>(writer.totalSamples()));
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    const vpm::cli::FlagReader flags("replay", printUsage, argc, argv);
    std::string spec_path;
    std::string checkpoint_path;
    double checkpoint_hours = -1.0;
    std::string json_path;
    int threads = 0;
    vpm::replay::ReplaySpec spec;
    bool have_flags = false;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--spec") {
            spec_path = flags.value(i);
        } else if (arg == "--trace") {
            spec.tracePath = flags.value(i);
            have_flags = true;
        } else if (arg == "--hosts") {
            spec.hosts = static_cast<int>(flags.integer(i, 1));
            have_flags = true;
        } else if (arg == "--vms") {
            spec.vms = static_cast<int>(flags.integer(i, 0));
            have_flags = true;
        } else if (arg == "--policy") {
            spec.policy = flags.value(i);
            have_flags = true;
        } else if (arg == "--duration-hours") {
            spec.durationHours = flags.number(i, 1e-9);
            have_flags = true;
        } else if (arg == "--eval-interval-s") {
            spec.evalIntervalS = flags.number(i, 1e-9);
            have_flags = true;
        } else if (arg == "--manager-period-min") {
            spec.managerPeriodMin = flags.number(i, 1e-9);
            have_flags = true;
        } else if (arg == "--exit-latency-s") {
            spec.exitLatencyS = flags.number(i, 0.0);
            have_flags = true;
        } else if (arg == "--loaded-fraction") {
            spec.loadedFraction = flags.number(i, 1e-9);
            have_flags = true;
        } else if (arg == "--hierarchical") {
            spec.hierarchical = true;
            have_flags = true;
        } else if (arg == "--seed") {
            spec.seed = static_cast<std::uint64_t>(
                flags.integer(i, 0, vpm::telemetry::kMaxExactInteger));
            have_flags = true;
        } else if (arg == "--window-bytes") {
            spec.windowBytes = static_cast<std::uint64_t>(
                flags.integer(i, 1, vpm::telemetry::kMaxExactInteger));
            have_flags = true;
        } else if (arg == "--governor-period-s") {
            spec.governorPeriodS = flags.number(i, 0.0);
            have_flags = true;
        } else if (arg == "--checkpoint") {
            checkpoint_path = flags.value(i);
        } else if (arg == "--checkpoint-hours") {
            checkpoint_hours = flags.number(i, 0.0);
        } else if (arg == "--json") {
            json_path = flags.value(i);
        } else if (arg == "--threads") {
            threads = static_cast<int>(
                flags.integer(i, 1, vpm::cli::kMaxThreads));
        } else {
            flags.refuse("run: unknown option '" + arg + "'");
        }
    }

    if (!spec_path.empty() && have_flags)
        flags.refuse("run: --spec excludes inline spec flags");
    std::string error;
    if (!spec_path.empty()) {
        std::ifstream in(spec_path);
        if (!in) {
            std::fprintf(stderr, "replay: cannot open spec '%s'\n",
                         spec_path.c_str());
            return 3;
        }
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        if (!vpm::replay::parseSpecJson(text, spec, &error)) {
            std::fprintf(stderr, "replay: '%s': %s\n", spec_path.c_str(),
                         error.c_str());
            return 3;
        }
    } else if (spec.tracePath.empty()) {
        flags.refuse("run needs --spec or --trace");
    }
    if (!checkpoint_path.empty() && checkpoint_hours < 0.0)
        flags.refuse("run: --checkpoint needs --checkpoint-hours");
    if (checkpoint_hours >= spec.durationHours && !checkpoint_path.empty())
        flags.refuse("run: --checkpoint-hours must be < duration");

    if (threads > 0)
        vpm::sim::setGlobalThreads(static_cast<unsigned>(threads));

    std::unique_ptr<vpm::replay::ReplaySession> session =
        vpm::replay::ReplaySession::create(spec, &error);
    if (!session) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }

    if (!checkpoint_path.empty()) {
        session->runTo(vpm::sim::SimTime::hours(checkpoint_hours));
        const vpm::replay::CheckpointData ckpt = session->capture();
        if (!vpm::replay::writeCheckpoint(ckpt, checkpoint_path, &error)) {
            std::fprintf(stderr, "replay: %s\n", error.c_str());
            return 3;
        }
        std::fprintf(stderr,
                     "replay: checkpoint '%s' at %.17g h (%llu events)\n",
                     checkpoint_path.c_str(), checkpoint_hours,
                     static_cast<unsigned long long>(ckpt.eventsProcessed));
    }

    const vpm::mgmt::ScenarioResult result = session->finish();
    const std::uint64_t digest = session->stateDigest();
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "replay: cannot write '%s'\n",
                         json_path.c_str());
            return 3;
        }
        writeResultJson(*session, result, digest, out);
    } else {
        writeResultJson(*session, result, digest, std::cout);
    }
    return 0;
}

int
cmdResume(int argc, char **argv)
{
    const vpm::cli::FlagReader flags("replay", printUsage, argc, argv);
    std::string checkpoint_path;
    std::string json_path;
    int threads = 0;
    bool verify = true;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--checkpoint")
            checkpoint_path = flags.value(i);
        else if (arg == "--json")
            json_path = flags.value(i);
        else if (arg == "--threads")
            threads = static_cast<int>(
                flags.integer(i, 1, vpm::cli::kMaxThreads));
        else if (arg == "--no-verify")
            verify = false;
        else
            flags.refuse("resume: unknown option '" + arg + "'");
    }
    if (checkpoint_path.empty())
        flags.refuse("resume needs --checkpoint");

    if (threads > 0)
        vpm::sim::setGlobalThreads(static_cast<unsigned>(threads));

    vpm::replay::CheckpointData ckpt;
    std::string error;
    if (!vpm::replay::readCheckpoint(checkpoint_path, ckpt, &error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }
    std::unique_ptr<vpm::replay::ReplaySession> session =
        vpm::replay::restoreCheckpoint(ckpt, verify, &error);
    if (!session) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return error.find("verification failed") != std::string::npos ? 4
                                                                      : 3;
    }
    if (verify)
        std::fprintf(stderr,
                     "replay: checkpoint verified, resuming at %lld us\n",
                     static_cast<long long>(ckpt.timeUs));

    const vpm::mgmt::ScenarioResult result = session->finish();
    const std::uint64_t digest = session->stateDigest();
    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "replay: cannot write '%s'\n",
                         json_path.c_str());
            return 3;
        }
        writeResultJson(*session, result, digest, out);
    } else {
        writeResultJson(*session, result, digest, std::cout);
    }
    return 0;
}

int
cmdBranch(int argc, char **argv)
{
    const vpm::cli::FlagReader flags("replay", printUsage, argc, argv);
    std::string checkpoint_path;
    std::string grid_path;
    std::string out_dir;
    vpm::replay::BranchOptions options;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--checkpoint")
            checkpoint_path = flags.value(i);
        else if (arg == "--grid")
            grid_path = flags.value(i);
        else if (arg == "--out")
            out_dir = flags.value(i);
        else if (arg == "--threads")
            options.threads = static_cast<int>(
                flags.integer(i, 1, vpm::cli::kMaxThreads));
        else if (arg == "--no-verify")
            options.verify = false;
        else
            flags.refuse("branch: unknown option '" + arg + "'");
    }
    if (checkpoint_path.empty() || grid_path.empty() || out_dir.empty())
        flags.refuse("branch needs --checkpoint, --grid and --out");

    vpm::replay::CheckpointData ckpt;
    std::string error;
    if (!vpm::replay::readCheckpoint(checkpoint_path, ckpt, &error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }
    std::ifstream grid_in(grid_path);
    if (!grid_in) {
        std::fprintf(stderr, "replay: cannot open grid '%s'\n",
                     grid_path.c_str());
        return 3;
    }
    vpm::sweep::SweepManifest manifest;
    if (!vpm::sweep::parseManifest(grid_in, manifest, &error)) {
        std::fprintf(stderr, "replay: '%s': %s\n", grid_path.c_str(),
                     error.c_str());
        return 3;
    }
    const std::vector<vpm::sweep::CellSpec> cells =
        vpm::sweep::expandGrid(manifest);

    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "replay: cannot create '%s': %s\n",
                     out_dir.c_str(), ec.message().c_str());
        return 3;
    }

    vpm::telemetry::SweepMatrix matrix;
    if (!vpm::replay::runBranches(ckpt, manifest, cells, options, matrix,
                                  std::cerr, &error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return error.find("verification failed") != std::string::npos ? 4
                                                                      : 3;
    }

    const std::size_t failed = vpm::sweep::writeArtifacts(matrix, out_dir);
    std::printf("replay branch '%s': %zu variants (%zu failed) -> "
                "%s/matrix.json\n",
                manifest.name.c_str(), matrix.cells.size(), failed,
                out_dir.c_str());
    return failed > 0 ? 1 : 0;
}

int
cmdInspect(int argc, char **argv)
{
    const vpm::cli::FlagReader flags("replay", printUsage, argc, argv);
    std::string trace_path;
    std::string checkpoint_path;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--trace")
            trace_path = flags.value(i);
        else if (arg == "--checkpoint")
            checkpoint_path = flags.value(i);
        else
            flags.refuse("inspect: unknown option '" + arg + "'");
    }
    if (trace_path.empty() == checkpoint_path.empty())
        flags.refuse("inspect needs exactly one of --trace/--checkpoint");

    std::string error;
    if (!trace_path.empty()) {
        const std::shared_ptr<vpm::replay::TraceFile> trace =
            vpm::replay::TraceFile::open(trace_path, 1u << 20, &error);
        if (!trace) {
            std::fprintf(stderr, "replay: %s\n", error.c_str());
            return 3;
        }
        const vpm::replay::TraceFileInfo &info = trace->info();
        std::printf("vpm-trace-1 '%s'\n", trace_path.c_str());
        std::printf("  vms:               %u\n", info.vmCount);
        std::printf("  quantum:           %u\n", info.quantum);
        std::printf("  samples_per_chunk: %u\n", info.samplesPerChunk);
        std::printf("  total_samples:     %llu\n",
                    static_cast<unsigned long long>(info.totalSamples));
        return 0;
    }

    vpm::replay::CheckpointData ckpt;
    if (!vpm::replay::readCheckpoint(checkpoint_path, ckpt, &error)) {
        std::fprintf(stderr, "replay: %s\n", error.c_str());
        return 3;
    }
    std::printf("vpm-ckpt-1 '%s'\n", checkpoint_path.c_str());
    std::printf("  time_us:          %lld\n",
                static_cast<long long>(ckpt.timeUs));
    std::printf("  events_processed: %llu\n",
                static_cast<unsigned long long>(ckpt.eventsProcessed));
    std::printf("  sections:\n");
    for (const auto &[name, bytes] : ckpt.sections)
        std::printf("    %-10s %zu bytes\n", name.c_str(), bytes.size());
    std::printf("  spec:\n%s", ckpt.specJson.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printUsage(stderr);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "help") {
        printUsage(stdout);
        return 0;
    }
    if (cmd == "gen-trace")
        return cmdGenTrace(argc - 2, argv + 2);
    if (cmd == "run")
        return cmdRun(argc - 2, argv + 2);
    if (cmd == "resume")
        return cmdResume(argc - 2, argv + 2);
    if (cmd == "branch")
        return cmdBranch(argc - 2, argv + 2);
    if (cmd == "inspect")
        return cmdInspect(argc - 2, argv + 2);
    std::fprintf(stderr, "replay: unknown subcommand '%s'\n", cmd.c_str());
    printUsage(stderr);
    return 2;
}
