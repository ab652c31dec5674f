/** @file Golden-output tests for the telemetry exporters. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::telemetry {
namespace {

/**
 * A small but kind-complete journal with integer-friendly values, so the
 * golden strings are stable against formatting ambiguity.
 */
void
populate(Telemetry &telemetry)
{
    TelemetryConfig config;
    config.enabled = true;
    config.journalCapacity = 64;
    config.timeseriesBucketUs = 1'000'000;
    telemetry.configure(config);

    EventJournal &journal = telemetry.journal();
    journal.registerTrack(TrackDomain::Host, 0, "host00");
    journal.registerTrack(TrackDomain::Vm, 7, "vm07");

    // Recorded out of order on purpose: exporters must sort by time.
    journal.powerTransition(2'000'000, 0, "On", "Entering", "S3", 2.0,
                            310.0);
    journal.migrationStart(1'000'000, 7, 0, 1, 3.0);
    journal.forecast(3'000'000, "ewma", 1000.0, 1250.0);
    journal.migrationFinish(4'000'000, 7, 0, 1, 3.0);
    journal.sleepDecision(5'000'000, 0, "S3", 600.0);
    journal.wakeDecision(6'000'000, 0, "capacity-shortfall");
    journal.slaViolation(7'000'000, 7, 0.5, 2000.0);

    TimeSeriesStore &store = telemetry.timeseries();
    store.record(store.seriesId("cluster.hosts.on"), 1'000'000, 8.0);
}

TEST(TelemetryExportTest, JournalJsonlGolden)
{
    Telemetry telemetry;
    populate(telemetry);

    std::ostringstream out;
    writeJournalJsonl(telemetry.journal(), out);

    const char *expected =
        R"({"t_us":1000000,"seq":2,"kind":"migration_start","track":"vm07","vm":7,"src":0,"dst":1,"expected_s":3}
{"t_us":2000000,"seq":1,"kind":"power_transition","track":"host00","host":0,"from":"On","to":"Entering","state":"S3","dur_s":2,"joules":310}
{"t_us":3000000,"seq":3,"kind":"forecast","track":"manager0","predictor":"ewma","forecast":1000,"actual":1250}
{"t_us":4000000,"seq":4,"kind":"migration_finish","track":"vm07","vm":7,"src":0,"dst":1,"dur_s":3}
{"t_us":5000000,"seq":5,"kind":"sleep_decision","track":"host00","host":0,"state":"S3","expected_idle_s":600,"idle_w":0,"sleep_w":0}
{"t_us":6000000,"seq":6,"kind":"wake_decision","track":"host00","host":0,"reason":"capacity-shortfall"}
{"t_us":7000000,"seq":7,"kind":"sla_violation","track":"vm07","vm":7,"satisfaction":0.5,"demand_mhz":2000}
)";
    EXPECT_EQ(out.str(), expected);
}

TEST(TelemetryExportTest, MetricsCsvGolden)
{
    Telemetry telemetry;
    populate(telemetry);

    std::ostringstream out;
    writeMetricsCsv(telemetry, out);
    EXPECT_EQ(out.str(), "series,start_us,min,max,mean,sum,count,last\n"
                         "cluster.hosts.on,1000000,8,8,8,8,1,8\n");
}

TEST(TelemetryExportTest, TraceCsvEqualsSnapshotQueryOfEverySeries)
{
    // The --trace CSV renders the live store; vpm_top --query renders a
    // vpm-ts-1 snapshot of it. Over every series the two must be the
    // same bytes: sealed blocks, pending buckets and the open bucket.
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    config.timeseriesBucketUs = 1'000;
    telemetry.configure(config);
    TimeSeriesStore &store = telemetry.timeseries();
    const std::uint32_t watts = store.seriesId("cluster.power.watts");
    const std::uint32_t ratio = store.seriesId("odd,name \"quoted\"");
    store.seriesId("never.recorded");
    for (std::int64_t t = 0; t < 400'000; t += 300) {
        store.record(watts, t, 100.0 + static_cast<double>(t % 7'000) / 3);
        if (t % 900 == 0)
            store.record(ratio, t, 1.0 / static_cast<double>(1 + t));
        telemetry.flushTimeseries(t);
    }

    std::ostringstream trace_csv;
    writeMetricsCsv(telemetry, trace_csv);

    std::stringstream bytes;
    store.writeSnapshot(bytes);
    TsSnapshot snapshot;
    std::string error;
    ASSERT_TRUE(readSnapshot(bytes, snapshot, &error)) << error;
    std::vector<std::string> names;
    for (const TsSnapshot::Series &series : snapshot.series)
        names.push_back(series.name);
    std::ostringstream query_csv;
    writeBucketCsv(snapshot, names, query_csv);

    const std::string text = trace_csv.str();
    EXPECT_EQ(text, query_csv.str());
    EXPECT_GT(std::count(text.begin(), text.end(), '\n'), 400);
    EXPECT_NE(text.find("\"odd,name \"\"quoted\"\"\",0,"),
              std::string::npos);
}

TEST(TelemetryExportTest, ChromeTraceGolden)
{
    Telemetry telemetry;
    populate(telemetry);
    // Idle residency closes as core and package spans on their own rows.
    telemetry.journal().idleTransition(8'000'000, 0, "core", "C6", "C0", 4,
                                       3.0, 0.5);
    telemetry.journal().idleTransition(8'000'000, 0, "pkg", "PC6", "PC0", 1,
                                       2.0, 1.0);

    std::ostringstream out;
    writeChromeTrace(telemetry, out);

    const char *expected =
        R"({"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"hosts"}},
{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"migrations"}},
{"ph":"M","pid":3,"tid":0,"name":"process_name","args":{"name":"manager"}},
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"metrics"}},
{"ph":"M","pid":4,"tid":0,"name":"process_name","args":{"name":"idle states"}},
{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"host00"}},
{"ph":"M","pid":2,"tid":7,"name":"thread_name","args":{"name":"vm07"}},
{"ph":"M","pid":4,"tid":0,"name":"thread_name","args":{"name":"host00 core"}},
{"ph":"M","pid":4,"tid":1,"name":"thread_name","args":{"name":"host00 pkg"}},
{"ph":"X","cat":"power","name":"On","pid":1,"tid":0,"ts":0,"dur":2000000,"args":{"to":"Entering","joules":310}},
{"ph":"C","name":"forecast","pid":3,"tid":0,"ts":3000000,"args":{"forecast":1000,"actual":1250}},
{"ph":"X","cat":"migration","name":"migrate host0->host1","pid":2,"tid":7,"ts":1000000,"dur":3000000,"args":{"seconds":3}},
{"ph":"i","s":"p","cat":"decision","name":"sleep(S3) host00","pid":3,"tid":0,"ts":5000000,"args":{"expected_idle_s":600}},
{"ph":"i","s":"p","cat":"decision","name":"wake host00","pid":3,"tid":0,"ts":6000000,"args":{"reason":"capacity-shortfall"}},
{"ph":"i","s":"t","cat":"sla","name":"SLA violation vm07","pid":2,"tid":7,"ts":7000000,"args":{"satisfaction":0.5}},
{"ph":"X","cat":"idle","name":"C6","pid":4,"tid":0,"ts":5000000,"dur":3000000,"args":{"to":"C0","cores":4,"joules":0.5}},
{"ph":"X","cat":"idle","name":"PC6","pid":4,"tid":1,"ts":6000000,"dur":2000000,"args":{"to":"PC0","cores":1,"joules":1}},
{"ph":"C","name":"cluster.hosts.on","pid":0,"tid":0,"ts":1000000,"args":{"value":8}}
],"displayTimeUnit":"ms"}
)";
    EXPECT_EQ(out.str(), expected);
}

TEST(TelemetryExportTest, InFlightMigrationRenderedWithExpectedDuration)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);
    telemetry.journal().migrationStart(1'000'000, 3, 0, 1, 5.0);

    std::ostringstream out;
    writeChromeTrace(telemetry, out);
    EXPECT_NE(out.str().find("migrate(in flight) host0->host1"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"dur\":5000000"), std::string::npos);
}

TEST(TelemetryExportTest, AbortedMigrationNamedAndReasoned)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);
    telemetry.journal().migrationStart(1'000'000, 3, 0, 1, 5.0);
    telemetry.journal().migrationAbort(2'000'000, 3, 0, 1,
                                       "endpoint lost power");

    std::ostringstream out;
    writeChromeTrace(telemetry, out);
    EXPECT_NE(out.str().find("migrate(aborted) host0->host1"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"reason\":\"endpoint lost power\""),
              std::string::npos);
}

TEST(TelemetryExportTest, CauseAndMigrateDecisionFieldsInJsonl)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);
    EventJournal &journal = telemetry.journal();
    journal.registerTrack(TrackDomain::Host, 3, "host03");

    std::uint64_t decision_seq = 0;
    {
        TraceScope scope(42);
        decision_seq =
            journal.migrateDecision(1'000'000, "evacuate", 2, 3);
        TraceScope inner(TraceContext{42, decision_seq});
        journal.powerTransition(2'000'000, 3, "On", "Entering", "S3", 2.0,
                                310.0);
    }
    // Outside any scope: no cause fields at all.
    journal.wakeDecision(3'000'000, 3, "capacity-shortfall");

    std::ostringstream out;
    writeJournalJsonl(journal, out);
    const std::string expected =
        "{\"t_us\":1000000,\"seq\":1,\"kind\":\"migrate_decision\","
        "\"track\":\"manager0\",\"cause\":42,"
        "\"reason\":\"evacuate\",\"moves\":2,\"subject_host\":3}\n"
        "{\"t_us\":2000000,\"seq\":2,\"kind\":\"power_transition\","
        "\"track\":\"host03\",\"host\":3,\"cause\":42,\"cause_seq\":1,"
        "\"from\":\"On\",\"to\":\"Entering\",\"state\":\"S3\","
        "\"dur_s\":2,\"joules\":310}\n"
        "{\"t_us\":3000000,\"seq\":3,\"kind\":\"wake_decision\","
        "\"track\":\"host03\",\"host\":3,"
        "\"reason\":\"capacity-shortfall\"}\n";
    EXPECT_EQ(decision_seq, 1u);
    EXPECT_EQ(out.str(), expected);
}

TEST(TelemetryExportTest, ControlCharactersInLabelsAreEscaped)
{
    // Labels are free text (track names come from user-supplied VM/host
    // names): quotes, backslashes and raw control bytes must come out as
    // valid JSON escapes, never as raw bytes that corrupt the stream.
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);
    EventJournal &journal = telemetry.journal();
    journal.registerTrack(TrackDomain::Host, 0, "host\t0\n\x01");
    journal.wakeDecision(1'000'000, 0, "line1\nline2\ttab\x02! \"q\" back\\slash");

    std::ostringstream jsonl;
    writeJournalJsonl(journal, jsonl);
    const char *expected =
        R"({"t_us":1000000,"seq":1,"kind":"wake_decision","track":"host\t0\n\u0001","host":0,"reason":"line1\nline2\ttab\u0002! \"q\" back\\slash"}
)";
    EXPECT_EQ(jsonl.str(), expected);

    // The Chrome trace writer shares the same escaper.
    std::ostringstream chrome;
    writeChromeTrace(telemetry, chrome);
    EXPECT_NE(chrome.str().find(R"("name":"host\t0\n\u0001")"),
              std::string::npos);
    EXPECT_EQ(chrome.str().find('\x01'), std::string::npos);
}

TEST(TelemetryExportTest, DisabledTelemetryExportsEmptyShells)
{
    Telemetry telemetry; // disabled

    std::ostringstream jsonl, csv, chrome;
    writeJournalJsonl(telemetry.journal(), jsonl);
    writeMetricsCsv(telemetry, csv);
    writeChromeTrace(telemetry, chrome);

    EXPECT_EQ(jsonl.str(), "");
    EXPECT_EQ(csv.str(), "series,start_us,min,max,mean,sum,count,last\n");
    // Still a valid trace file: metadata only, no events.
    EXPECT_NE(chrome.str().find("\"traceEvents\":["), std::string::npos);
    EXPECT_EQ(chrome.str().find("\"ph\":\"X\""), std::string::npos);
}

} // namespace
} // namespace vpm::telemetry
