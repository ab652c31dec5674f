/**
 * @file
 * Sweep orchestrator tests: manifest parsing, canonical grid expansion
 * (seeds are samples, not an axis), the vpm-sweep-1 round-trip, the
 * statistically-gated matrix comparator, cell execution, resume-skip,
 * and byte-identical reports across worker-thread counts.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "sweep/manifest.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "telemetry/sweep_matrix.hpp"

namespace vpm::sweep {
namespace {

const char *kManifestText = R"({
  "schema": "vpm-sweep-manifest-1",
  "name": "grid_test",
  "duration_hours": 2.0,
  "repeats": 2,
  "axes": {
    "policy": ["joint", "s3"],
    "workload": ["steady", "surge"],
    "exit_latency_s": [15, 600],
    "seeds": [42, 43, 44]
  }
})";

SweepManifest
parsed(const std::string &text)
{
    std::istringstream in(text);
    SweepManifest manifest;
    std::string error;
    EXPECT_TRUE(parseManifest(in, manifest, &error)) << error;
    return manifest;
}

std::string
parseError(const std::string &text)
{
    std::istringstream in(text);
    SweepManifest manifest;
    std::string error;
    EXPECT_FALSE(parseManifest(in, manifest, &error));
    return error;
}

/** A tiny manifest the runner can execute in milliseconds. */
SweepManifest
tinyManifest()
{
    SweepManifest manifest;
    manifest.name = "tiny";
    manifest.durationHours = 0.5;
    manifest.repeats = 1;
    manifest.policies = {"s3", "cstates"};
    manifest.workloads = {"steady"};
    manifest.exitLatenciesS = {15.0};
    manifest.loadScales = {0.5};
    manifest.hostCounts = {4};
    manifest.vmCounts = {12};
    manifest.seeds = {42, 43};
    return manifest;
}

std::string
freshDir(const std::string &tag)
{
    std::random_device rd;
    const std::string path = std::filesystem::temp_directory_path() /
                             ("vpm_sweep_" + tag + "_" +
                              std::to_string(rd()));
    std::filesystem::remove_all(path);
    return path;
}

TEST(SweepManifestTest, ParsesTheFullGrid)
{
    const SweepManifest manifest = parsed(kManifestText);
    EXPECT_EQ(manifest.name, "grid_test");
    EXPECT_EQ(manifest.durationHours, 2.0);
    EXPECT_EQ(manifest.repeats, 2);
    EXPECT_EQ(manifest.policies, (std::vector<std::string>{"joint", "s3"}));
    EXPECT_EQ(manifest.workloads,
              (std::vector<std::string>{"steady", "surge"}));
    EXPECT_EQ(manifest.exitLatenciesS, (std::vector<double>{15.0, 600.0}));
    EXPECT_EQ(manifest.seeds,
              (std::vector<std::uint64_t>{42, 43, 44}));
    // Unspecified axes keep their single-valued defaults.
    EXPECT_EQ(manifest.loadScales, (std::vector<double>{0.5}));
    EXPECT_EQ(manifest.hostCounts, (std::vector<int>{8}));
    EXPECT_EQ(manifest.vmCounts, (std::vector<int>{40}));
    EXPECT_EQ(manifest.cellCount(), 8u);
}

TEST(SweepManifestTest, RejectsWrongSchema)
{
    const std::string error = parseError(
        R"({"schema": "vpm-sweep-manifest-9", "axes": {}})");
    EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(SweepManifestTest, RejectsUnknownPolicy)
{
    const std::string error = parseError(R"({
      "schema": "vpm-sweep-manifest-1",
      "axes": {"policy": ["warp-drive"]}})");
    EXPECT_NE(error.find("warp-drive"), std::string::npos);
}

TEST(SweepManifestTest, RejectsEmptyAxis)
{
    const std::string error = parseError(R"({
      "schema": "vpm-sweep-manifest-1",
      "axes": {"policy": []}})");
    EXPECT_NE(error.find("non-empty"), std::string::npos);
}

TEST(SweepManifestTest, RejectsUnknownAxisName)
{
    // A typo must not silently sweep nothing.
    const std::string error = parseError(R"({
      "schema": "vpm-sweep-manifest-1",
      "axes": {"exit_latency": [15]}})");
    EXPECT_NE(error.find("unknown axis"), std::string::npos);
}

TEST(SweepManifestTest, RejectsBadRepeatsAndDuration)
{
    EXPECT_NE(parseError(R"({"schema": "vpm-sweep-manifest-1",
                             "repeats": 0, "axes": {}})")
                  .find("repeats"),
              std::string::npos);
    EXPECT_NE(parseError(R"({"schema": "vpm-sweep-manifest-1",
                             "duration_hours": -1, "axes": {}})")
                  .find("duration"),
              std::string::npos);
}

TEST(SweepManifestTest, RejectsMistypedAndOutOfRangeValues)
{
    // Each row used to parse: a cast truncated or overflowed the count,
    // or a fallback replaced the mistyped value with a default.
    const struct
    {
        const char *top;  ///< extra top-level members
        const char *axes; ///< axes object body
        const char *errorNames;
    } rows[] = {
        {"", R"("hosts": [2.7])", "hosts"},
        {"", R"("hosts": [1e12])", "hosts"},
        {"", R"("vms": [-3])", "vms"},
        {"", R"("vms": [40.5])", "vms"},
        {"", R"("seeds": [1.5])", "seeds"},
        {"", R"("hosts": ["8"])", "hosts"},
        {R"("repeats": 2.5,)", "", "repeats"},
        {R"("repeats": 1e12,)", "", "repeats"},
        {R"("duration_hours": "6",)", "", "duration_hours"},
        {R"("name": 5,)", "", "name"},
        {R"("duraton_hours": 1,)", "", "duraton_hours"},
        {"", R"("policy": [7])", "policy"},
    };
    for (const auto &row : rows) {
        const std::string text =
            std::string(R"({"schema": "vpm-sweep-manifest-1", )") + row.top +
            R"( "axes": {)" + row.axes + "}}";
        SCOPED_TRACE(text);
        EXPECT_NE(parseError(text).find(row.errorNames), std::string::npos);
    }
}

TEST(SweepGridTest, ExpansionIsCanonical)
{
    const SweepManifest manifest = parsed(kManifestText);
    const std::vector<CellSpec> cells = expandGrid(manifest);
    ASSERT_EQ(cells.size(), 8u);

    // Row-major over policy > workload > exit_latency_s: the last axis
    // varies fastest, and indices are assigned in order.
    EXPECT_EQ(cells[0].id,
              "policy=joint/workload=steady/exit=15/load=0.5/hosts=8/"
              "vms=40");
    EXPECT_EQ(cells[1].exitLatencyS, 600.0);
    EXPECT_EQ(cells[2].workload, "surge");
    EXPECT_EQ(cells[4].policy, "s3");
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].index, i);
}

TEST(SweepGridTest, ExpansionIgnoresAxisDeclarationOrder)
{
    // The same axes declared in a different order produce the same grid.
    const SweepManifest shuffled = parsed(R"({
      "schema": "vpm-sweep-manifest-1",
      "name": "grid_test", "duration_hours": 2.0, "repeats": 2,
      "axes": {
        "seeds": [42, 43, 44],
        "exit_latency_s": [15, 600],
        "workload": ["steady", "surge"],
        "policy": ["joint", "s3"]
      }})");
    const std::vector<CellSpec> a = expandGrid(parsed(kManifestText));
    const std::vector<CellSpec> b = expandGrid(shuffled);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].id, b[i].id);
}

TEST(SweepGridTest, SeedsAreSamplesNotAGridAxis)
{
    SweepManifest manifest = parsed(kManifestText);
    const std::size_t before = expandGrid(manifest).size();
    manifest.seeds = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_EQ(expandGrid(manifest).size(), before);
}

TEST(SweepMatrixTest, CellJsonRoundTrip)
{
    telemetry::SweepCell cell;
    cell.id = "policy=s3/workload=steady/exit=15/load=0.5/hosts=4/vms=12";
    cell.index = 3;
    cell.status = telemetry::CellStatus::Ok;
    cell.axes = {{"policy", "s3"}, {"workload", "steady"}};
    cell.seeds = {42, 43};
    cell.repeats = 2;
    cell.metrics = {{"energy_j", {100.5, 90.25, 110.75, 2}}};

    std::stringstream buffer;
    telemetry::writeCellJson(cell, buffer);
    telemetry::SweepCell parsed_cell;
    std::string error;
    ASSERT_TRUE(telemetry::readCellJson(buffer, parsed_cell, &error))
        << error;
    EXPECT_EQ(parsed_cell.id, cell.id);
    EXPECT_EQ(parsed_cell.index, 3u);
    EXPECT_EQ(parsed_cell.seeds, cell.seeds);
    EXPECT_EQ(parsed_cell.repeats, 2);
    ASSERT_NE(parsed_cell.metric("energy_j"), nullptr);
    EXPECT_EQ(parsed_cell.metric("energy_j")->ci.point, 100.5);
    EXPECT_EQ(parsed_cell.metric("energy_j")->ci.lo, 90.25);
    EXPECT_EQ(parsed_cell.metric("energy_j")->ci.hi, 110.75);
    EXPECT_EQ(parsed_cell.metric("energy_j")->ci.n, 2u);
    EXPECT_EQ(parsed_cell.axis("policy"), "s3");
}

TEST(SweepMatrixTest, MatrixJsonRoundTripAndSchemaRejection)
{
    telemetry::SweepMatrix matrix;
    matrix.name = "round_trip";
    matrix.threads = 4;
    matrix.exec = "process";
    telemetry::SweepCell cell;
    cell.id = "policy=joint/workload=surge/exit=600/load=0.5/hosts=8/vms=40";
    cell.status = telemetry::CellStatus::Timeout;
    cell.error = "killed after 10 s";
    matrix.cells.push_back(cell);

    std::stringstream buffer;
    telemetry::writeSweepJson(matrix, buffer);
    telemetry::SweepMatrix parsed_matrix;
    std::string error;
    ASSERT_TRUE(telemetry::readSweepJson(buffer, parsed_matrix, &error))
        << error;
    EXPECT_EQ(parsed_matrix.name, "round_trip");
    EXPECT_EQ(parsed_matrix.threads, 4);
    EXPECT_EQ(parsed_matrix.exec, "process");
    ASSERT_EQ(parsed_matrix.cells.size(), 1u);
    EXPECT_EQ(parsed_matrix.cells[0].status,
              telemetry::CellStatus::Timeout);
    EXPECT_EQ(parsed_matrix.cells[0].error, "killed after 10 s");

    std::stringstream bad;
    bad << R"({"schema": "vpm-sweep-2", "cells": []})";
    telemetry::SweepMatrix rejected;
    EXPECT_FALSE(telemetry::readSweepJson(bad, rejected, &error));
    EXPECT_NE(error.find("schema"), std::string::npos);
}

telemetry::SweepMatrix
matrixWithEnergy(double point, double lo, double hi)
{
    telemetry::SweepMatrix matrix;
    matrix.name = "compare";
    telemetry::SweepCell cell;
    cell.id = "policy=s3/workload=steady/exit=15/load=0.5/hosts=8/vms=40";
    cell.status = telemetry::CellStatus::Ok;
    cell.metrics = {{"energy_j", {point, lo, hi, 5}},
                    {"sla_violation_pct", {1.0, 0.5, 1.5, 5}},
                    {"wake_p99_s", {2.0, 2.0, 2.0, 5}}};
    matrix.cells.push_back(std::move(cell));
    return matrix;
}

TEST(SweepCompareTest, IdenticalMatricesAreQuiet)
{
    const telemetry::SweepMatrix m = matrixWithEnergy(100.0, 95.0, 105.0);
    const telemetry::SweepCompareResult result =
        telemetry::compareSweepMatrices(m, m, {});
    ASSERT_TRUE(result.comparable);
    EXPECT_FALSE(result.regressed());
    EXPECT_TRUE(result.improvements.empty());
}

TEST(SweepCompareTest, SeparatedWorseIntervalIsARegression)
{
    const telemetry::SweepMatrix base = matrixWithEnergy(100, 95, 105);
    const telemetry::SweepMatrix next = matrixWithEnergy(120, 115, 125);
    const telemetry::SweepCompareResult result =
        telemetry::compareSweepMatrices(base, next, {});
    ASSERT_TRUE(result.comparable);
    ASSERT_EQ(result.regressions.size(), 1u);
    EXPECT_EQ(result.regressions[0].metric, "energy_j");
    EXPECT_TRUE(result.regressions[0].worse);
}

TEST(SweepCompareTest, OverlappingWorseIntervalStaysQuiet)
{
    const telemetry::SweepMatrix base = matrixWithEnergy(100, 95, 105);
    const telemetry::SweepMatrix next = matrixWithEnergy(108, 104, 112);
    const telemetry::SweepCompareResult result =
        telemetry::compareSweepMatrices(base, next, {});
    ASSERT_TRUE(result.comparable);
    EXPECT_FALSE(result.regressed());
}

TEST(SweepCompareTest, SeparatedBetterIntervalIsAnImprovement)
{
    const telemetry::SweepMatrix base = matrixWithEnergy(100, 95, 105);
    const telemetry::SweepMatrix next = matrixWithEnergy(80, 75, 85);
    const telemetry::SweepCompareResult result =
        telemetry::compareSweepMatrices(base, next, {});
    EXPECT_FALSE(result.regressed());
    ASSERT_EQ(result.improvements.size(), 1u);
    EXPECT_EQ(result.improvements[0].metric, "energy_j");
}

TEST(SweepCompareTest, UnhealthyCandidateCellGates)
{
    const telemetry::SweepMatrix base = matrixWithEnergy(100, 95, 105);
    telemetry::SweepMatrix next = matrixWithEnergy(100, 95, 105);
    next.cells[0].status = telemetry::CellStatus::Failed;
    const telemetry::SweepCompareResult result =
        telemetry::compareSweepMatrices(base, next, {});
    ASSERT_TRUE(result.comparable);
    EXPECT_TRUE(result.regressed());
    ASSERT_EQ(result.unhealthyNext.size(), 1u);
}

TEST(SweepCompareTest, CellPresenceChangesAreInformational)
{
    const telemetry::SweepMatrix base = matrixWithEnergy(100, 95, 105);
    telemetry::SweepMatrix next = base;
    next.cells[0].id = "policy=joint/workload=steady/exit=15/load=0.5/"
                       "hosts=8/vms=40";
    const telemetry::SweepCompareResult result =
        telemetry::compareSweepMatrices(base, next, {});
    ASSERT_TRUE(result.comparable);
    EXPECT_FALSE(result.regressed());
    EXPECT_EQ(result.onlyInBase.size(), 1u);
    EXPECT_EQ(result.onlyInNext.size(), 1u);
}

TEST(SweepRunnerTest, RunCellProducesDeterministicIntervalMetrics)
{
    const SweepManifest manifest = tinyManifest();
    const std::vector<CellSpec> cells = expandGrid(manifest);
    ASSERT_EQ(cells.size(), 2u);

    const telemetry::SweepCell a = runCell(manifest, cells[0], 1);
    EXPECT_EQ(a.status, telemetry::CellStatus::Ok);
    for (const char *name :
         {"energy_j", "sla_violation_pct", "wake_p99_s", "wall_ms",
          "events_per_sec"})
        EXPECT_NE(a.metric(name), nullptr) << name;
    // Deterministic metrics sample over seeds; wall metrics over repeats.
    EXPECT_EQ(a.metric("energy_j")->ci.n, manifest.seeds.size());
    EXPECT_EQ(a.metric("wall_ms")->ci.n, 1u);
    EXPECT_GT(a.metric("energy_j")->ci.point, 0.0);

    const telemetry::SweepCell b = runCell(manifest, cells[0], 1);
    EXPECT_EQ(a.metric("energy_j")->ci.point,
              b.metric("energy_j")->ci.point);
    EXPECT_EQ(a.metric("energy_j")->ci.lo, b.metric("energy_j")->ci.lo);
    EXPECT_EQ(a.metric("sla_violation_pct")->ci.point,
              b.metric("sla_violation_pct")->ci.point);
}

/** Deterministic report text for the matrix (table + frontier). */
std::string
reportText(const telemetry::SweepMatrix &matrix)
{
    std::ostringstream out;
    writePolicyTable(matrix, out);
    writeParetoText(paretoFrontier(matrix), out);
    std::ostringstream csv;
    writePolicyCsv(matrix, csv);
    return out.str() + csv.str();
}

TEST(SweepRunnerTest, ReportsAreByteIdenticalAcrossThreadCounts)
{
    const SweepManifest manifest = tinyManifest();
    const std::vector<CellSpec> cells = expandGrid(manifest);

    std::string reference;
    for (const int threads : {1, 2, 8}) {
        RunOptions options;
        options.outDir = freshDir("threads" + std::to_string(threads));
        options.threads = threads;
        telemetry::SweepMatrix matrix;
        std::ostringstream log;
        std::string error;
        ASSERT_TRUE(runSweep(manifest, cells, options, matrix, log,
                             &error))
            << error;
        ASSERT_EQ(matrix.cells.size(), cells.size());
        for (std::size_t i = 0; i < matrix.cells.size(); ++i)
            EXPECT_EQ(matrix.cells[i].id, cells[i].id); // canonical order
        matrix.threads = 0; // normalize the informational field
        const std::string text = reportText(matrix);
        if (reference.empty())
            reference = text;
        else
            EXPECT_EQ(text, reference) << "threads=" << threads;
        std::filesystem::remove_all(options.outDir);
    }
}

TEST(SweepRunnerTest, ResumeSkipsFinishedCells)
{
    const SweepManifest manifest = tinyManifest();
    const std::vector<CellSpec> cells = expandGrid(manifest);

    RunOptions options;
    options.outDir = freshDir("resume");
    options.threads = 1;
    telemetry::SweepMatrix first;
    std::ostringstream log;
    std::string error;
    ASSERT_TRUE(runSweep(manifest, cells, options, first, log, &error));

    // Tamper with cell 0's persisted file: if --resume really skips it,
    // the tampered value must surface in the reloaded matrix.
    const std::string path = cellFilePath(options.outDir, 0);
    telemetry::SweepCell tampered;
    {
        std::ifstream in(path);
        ASSERT_TRUE(telemetry::readCellJson(in, tampered, &error));
    }
    for (telemetry::CellMetric &metric : tampered.metrics)
        if (metric.name == "energy_j")
            metric.ci.point = 1234.5;
    {
        std::ofstream out(path);
        telemetry::writeCellJson(tampered, out);
    }

    options.resume = true;
    telemetry::SweepMatrix resumed;
    ASSERT_TRUE(runSweep(manifest, cells, options, resumed, log, &error));
    EXPECT_EQ(resumed.cells[0].metric("energy_j")->ci.point, 1234.5);
    // Untouched cells come back with their real values either way.
    EXPECT_EQ(resumed.cells[1].metric("energy_j")->ci.point,
              first.cells[1].metric("energy_j")->ci.point);

    // Without --resume the tampering is overwritten by a fresh run.
    options.resume = false;
    telemetry::SweepMatrix rerun;
    ASSERT_TRUE(runSweep(manifest, cells, options, rerun, log, &error));
    EXPECT_EQ(rerun.cells[0].metric("energy_j")->ci.point,
              first.cells[0].metric("energy_j")->ci.point);

    std::filesystem::remove_all(options.outDir);
}

TEST(SweepRunnerTest, ResumeIgnoresMismatchedCellFile)
{
    const SweepManifest manifest = tinyManifest();
    const std::vector<CellSpec> cells = expandGrid(manifest);

    RunOptions options;
    options.outDir = freshDir("resume_bad");
    options.threads = 1;
    options.resume = true;
    std::filesystem::create_directories(options.outDir + "/cells");
    {
        // A cell file with the wrong id (stale manifest) must be re-run,
        // as must one with unparseable content.
        std::ofstream out(cellFilePath(options.outDir, 0));
        out << R"({"id": "policy=nopm/stale", "status": "ok"})";
    }
    {
        std::ofstream out(cellFilePath(options.outDir, 1));
        out << "not json at all";
    }
    telemetry::SweepMatrix matrix;
    std::ostringstream log;
    std::string error;
    ASSERT_TRUE(runSweep(manifest, cells, options, matrix, log, &error));
    for (const telemetry::SweepCell &cell : matrix.cells) {
        EXPECT_EQ(cell.status, telemetry::CellStatus::Ok);
        EXPECT_GT(cell.metric("energy_j")->ci.point, 0.0);
    }
    std::filesystem::remove_all(options.outDir);
}

TEST(SweepManifestTest, ContentHashTracksResultsNotCosmetics)
{
    const SweepManifest base = tinyManifest();
    const std::string hash = manifestContentHash(base);
    EXPECT_EQ(hash.size(), 16u);

    // Cosmetic fields do not move the hash.
    SweepManifest renamed = base;
    renamed.name = "totally_different";
    renamed.repeats = 99;
    EXPECT_EQ(manifestContentHash(renamed), hash);

    // Every result-determining field does.
    SweepManifest longer = base;
    longer.durationHours = 1.0;
    EXPECT_NE(manifestContentHash(longer), hash);
    SweepManifest reseeded = base;
    reseeded.seeds = {42};
    EXPECT_NE(manifestContentHash(reseeded), hash);
    SweepManifest bigger = base;
    bigger.vmCounts = {24};
    EXPECT_NE(manifestContentHash(bigger), hash);
}

TEST(SweepRunnerTest, ResumeRerunsCellsFromAnEditedManifest)
{
    const SweepManifest manifest = tinyManifest();
    const std::vector<CellSpec> cells = expandGrid(manifest);

    RunOptions options;
    options.outDir = freshDir("resume_stale");
    options.threads = 1;
    telemetry::SweepMatrix first;
    std::ostringstream log;
    std::string error;
    ASSERT_TRUE(runSweep(manifest, cells, options, first, log, &error));

    // Tamper with cell 0 so a silent resume would be visible.
    const std::string path = cellFilePath(options.outDir, 0);
    telemetry::SweepCell tampered;
    {
        std::ifstream in(path);
        ASSERT_TRUE(telemetry::readCellJson(in, tampered, &error));
    }
    for (telemetry::CellMetric &metric : tampered.metrics)
        if (metric.name == "energy_j")
            metric.ci.point = 1234.5;
    {
        std::ofstream out(path);
        telemetry::writeCellJson(tampered, out);
    }

    // Same grid shape (same cell ids!) but a different duration: the id
    // check alone cannot see this edit — the content hash must.
    SweepManifest edited = manifest;
    edited.durationHours = 0.25;
    options.resume = true;
    telemetry::SweepMatrix resumed;
    std::ostringstream stale_log;
    ASSERT_TRUE(runSweep(edited, expandGrid(edited), options, resumed,
                         stale_log, &error));
    EXPECT_NE(resumed.cells[0].metric("energy_j")->ci.point, 1234.5);
    EXPECT_NE(stale_log.str().find("stale cell (manifest changed)"),
              std::string::npos);

    // Resuming with the edited manifest AGAIN now reuses its own cells.
    telemetry::SweepMatrix again;
    std::ostringstream quiet_log;
    ASSERT_TRUE(runSweep(edited, expandGrid(edited), options, again,
                         quiet_log, &error));
    EXPECT_NE(quiet_log.str().find("(resumed)"), std::string::npos);
    EXPECT_EQ(quiet_log.str().find("stale cell"), std::string::npos);

    std::filesystem::remove_all(options.outDir);
}

TEST(SweepReportTest, FrontierMinimizesAllThreeObjectives)
{
    telemetry::SweepMatrix matrix;
    const auto addCell = [&](const std::string &policy, double energy,
                             double sla, double wake) {
        telemetry::SweepCell cell;
        cell.index = matrix.cells.size();
        cell.id = "policy=" + policy +
                  "/workload=steady/exit=15/load=0.5/hosts=8/vms=40";
        cell.status = telemetry::CellStatus::Ok;
        cell.axes = {{"policy", policy}, {"workload", "steady"}};
        cell.metrics = {
            {"energy_j", {energy, energy, energy, 3}},
            {"sla_violation_pct", {sla, sla, sla, 3}},
            {"wake_p99_s", {wake, wake, wake, 3}}};
        matrix.cells.push_back(std::move(cell));
    };
    addCell("joint", 100.0, 1.0, 5.0);   // dominates s3
    addCell("s3", 120.0, 2.0, 5.0);      // dominated
    addCell("cstates", 110.0, 0.5, 0.0); // trades energy for SLA/wake

    const ParetoReport report = paretoFrontier(matrix);
    ASSERT_EQ(report.groups.size(), 1u);
    const std::vector<ParetoEntry> &entries = report.groups[0].entries;
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_TRUE(entries[0].onFrontier);  // joint
    EXPECT_FALSE(entries[1].onFrontier); // s3
    EXPECT_TRUE(entries[2].onFrontier);  // cstates
    EXPECT_EQ(entries[1].dominatedBy, entries[0].cellId);
    EXPECT_TRUE(entries[1].ciSeparated); // zero-width CIs, all differ
}

TEST(SweepReportTest, FailedCellsStayOutOfTheFrontier)
{
    telemetry::SweepMatrix matrix;
    telemetry::SweepCell cell;
    cell.id = "policy=joint/workload=steady/exit=15/load=0.5/hosts=8/"
              "vms=40";
    cell.status = telemetry::CellStatus::Failed;
    matrix.cells.push_back(cell);
    const ParetoReport report = paretoFrontier(matrix);
    EXPECT_TRUE(report.groups.empty());
}

} // namespace
} // namespace vpm::sweep
