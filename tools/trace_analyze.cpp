/**
 * @file
 * trace_analyze — reconstruct causal chains from a telemetry journal dump.
 *
 * Input is the JSONL file produced by the benches' --trace flag. Using the
 * `cause` field stamped on every record, the tool links each wake decision
 * to its power transitions and respread migrations and prints the
 * wake-latency decomposition (wait / resume / respread, summing to the
 * end-to-end latency), per-sleep-decision energy attribution, and
 * SLA-violation charging. See telemetry/trace_analysis.hpp.
 *
 * Usage:
 *   trace_analyze <journal.jsonl> [options]
 *
 * Options:
 *   --json <path>           also write the analysis as JSON ('-' = stdout)
 *   --check                 exit 3 unless every wake chain is complete,
 *                           components sum to end-to-end latency, and all
 *                           SLA violations are attributed
 *   --tolerance-us <n>      sum-check tolerance in simulated us (default 1)
 *   --respread-window-s <x> inbound-migration window after On (default 180)
 *   --quiet                 suppress the human-readable tables
 *
 * Exit codes: 0 ok, 1 I/O error, 2 usage error, 3 --check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "telemetry/cli.hpp"
#include "telemetry/trace_analysis.hpp"

namespace {

struct Options
{
    std::string path;
    std::string jsonPath;
    bool check = false;
    bool quiet = false;
    vpm::telemetry::AnalyzerOptions analyzer;
};

void
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: trace_analyze <journal.jsonl> [--json <path>] [--check]\n"
        "                     [--tolerance-us <n>] [--respread-window-s "
        "<x>] [--quiet]\n");
}

void
parseArgs(int argc, char **argv, Options &opts)
{
    const vpm::cli::FlagReader flags("trace_analyze", usage, argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            usage(stdout);
            std::exit(0);
        }
        if (std::strcmp(argv[i], "--version") == 0) {
            std::printf("trace_analyze (vpm) journal schema 1\n");
            std::exit(0);
        }
    }
    if (argc < 2)
        flags.refuse("missing <journal.jsonl>");
    if (argv[1][0] == '-')
        flags.refuse(std::string("unknown option '") + argv[1] + "'");
    opts.path = argv[1];

    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            opts.check = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            opts.quiet = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opts.jsonPath = flags.value(i);
        } else if (std::strcmp(argv[i], "--tolerance-us") == 0) {
            // Strict whole-token parse: "--tolerance-us bogus" used to
            // strtoll() to 0 and silently tighten the sum check.
            opts.analyzer.toleranceUs = flags.integer(i, 0, LLONG_MAX);
        } else if (std::strcmp(argv[i], "--respread-window-s") == 0) {
            opts.analyzer.respreadWindowS = flags.number(i, 0.0);
        } else {
            flags.refuse(std::string("unknown option '") + argv[i] + "'");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    parseArgs(argc, argv, opts);

    std::ifstream in(opts.path);
    if (!in) {
        std::fprintf(stderr, "trace_analyze: cannot open '%s'\n",
                     opts.path.c_str());
        return 1;
    }

    const auto records = vpm::telemetry::readJournalFile(in);
    const auto analysis = vpm::telemetry::analyzeTrace(records, opts.analyzer);

    if (!opts.quiet)
        vpm::telemetry::writeAnalysisText(analysis, std::cout);

    if (!opts.jsonPath.empty()) {
        if (opts.jsonPath == "-") {
            vpm::telemetry::writeAnalysisJson(analysis, std::cout);
        } else {
            std::ofstream out(opts.jsonPath);
            if (!out) {
                std::fprintf(stderr, "trace_analyze: cannot write '%s'\n",
                             opts.jsonPath.c_str());
                return 1;
            }
            vpm::telemetry::writeAnalysisJson(analysis, out);
        }
    }

    if (opts.check) {
        std::string why;
        if (!vpm::telemetry::analysisPassesChecks(analysis, opts.analyzer,
                                                  &why)) {
            std::fprintf(stderr, "trace_analyze: CHECK FAILED: %s\n",
                         why.c_str());
            return 3;
        }
        std::fprintf(stderr, "trace_analyze: all checks passed (%zu wake "
                             "chains, %llu violations attributed)\n",
                     analysis.wakes.size(),
                     static_cast<unsigned long long>(
                         analysis.violationsAttributed));
    }
    return 0;
}
