/** @file Unit tests for the telemetry journal and facade. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::telemetry {
namespace {

// ---------------------------------------------------------------- journal

TEST(EventJournalTest, SortedEventsOrderOutOfOrderInsertions)
{
    EventJournal journal;
    journal.configure(16, true);

    const auto at = [](std::int64_t t) {
        JournalEvent ev;
        ev.timeUs = t;
        return ev;
    };
    // Two sources flushing at different moments: times arrive shuffled,
    // with a tie between the first and third insertion.
    journal.record(at(30));
    journal.record(at(10));
    journal.record(at(30));
    journal.record(at(20));

    const std::vector<JournalEvent> sorted = journal.sortedEvents();
    ASSERT_EQ(sorted.size(), 4u);
    EXPECT_EQ(sorted[0].timeUs, 10);
    EXPECT_EQ(sorted[1].timeUs, 20);
    EXPECT_EQ(sorted[2].timeUs, 30);
    EXPECT_EQ(sorted[3].timeUs, 30);
    // The tie resolves in insertion order (stable sort by time).
    EXPECT_LT(sorted[2].seq, sorted[3].seq);
}

TEST(EventJournalTest, RingOverwritesOldestWhenFull)
{
    EventJournal journal;
    journal.configure(4, true);

    for (std::int64_t t = 1; t <= 6; ++t) {
        JournalEvent ev;
        ev.timeUs = t;
        journal.record(ev);
    }
    EXPECT_EQ(journal.size(), 4u);
    EXPECT_EQ(journal.capacity(), 4u);
    EXPECT_EQ(journal.recorded(), 6u);
    EXPECT_EQ(journal.dropped(), 2u);

    const std::vector<JournalEvent> sorted = journal.sortedEvents();
    ASSERT_EQ(sorted.size(), 4u);
    EXPECT_EQ(sorted.front().timeUs, 3); // 1 and 2 were overwritten
    EXPECT_EQ(sorted.back().timeUs, 6);
}

TEST(EventJournalTest, WraparoundExportEmitsOnlySurvivors)
{
    // After the ring wraps, the JSONL exporter must emit exactly the
    // surviving (newest) records — never the overwritten ones — and the
    // drop accounting must agree with what the file shows.
    EventJournal journal;
    journal.configure(4, true);
    for (std::int64_t t = 1; t <= 7; ++t)
        journal.wakeDecision(t * 1'000'000, 0, "capacity-shortfall");
    EXPECT_EQ(journal.recorded(), 7u);
    EXPECT_EQ(journal.dropped(), 3u);
    EXPECT_EQ(journal.size(), journal.recorded() - journal.dropped());

    std::ostringstream out;
    writeJournalJsonl(journal, out);
    const std::string text = out.str();
    for (std::int64_t t = 1; t <= 3; ++t)
        EXPECT_EQ(text.find("\"t_us\":" + std::to_string(t * 1'000'000)),
                  std::string::npos)
            << "overwritten record " << t << " leaked into the export";
    std::size_t lines = 0;
    for (std::int64_t t = 4; t <= 7; ++t) {
        EXPECT_NE(text.find("\"t_us\":" + std::to_string(t * 1'000'000)),
                  std::string::npos)
            << "surviving record " << t << " missing from the export";
        ++lines;
    }
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')),
              lines);
    // Sequence numbers keep counting across the wrap (4 survivors end at
    // seq 7, the total recorded), so gaps reveal drops to the analyzer.
    EXPECT_NE(text.find("\"seq\":7"), std::string::npos);
    EXPECT_EQ(text.find("\"seq\":3"), std::string::npos);
}

TEST(EventJournalTest, InterningIsIdempotentAndEmptyIsZero)
{
    EventJournal journal;
    journal.configure(8, true);
    EXPECT_EQ(journal.intern(""), 0);
    const LabelId s3 = journal.intern("S3");
    EXPECT_EQ(journal.intern("S3"), s3);
    EXPECT_NE(journal.intern("S5"), s3);
    EXPECT_EQ(journal.label(s3), "S3");
    EXPECT_EQ(journal.label(0), "");
    EXPECT_EQ(journal.labelCount(), 3u); // "", "S3", "S5"
}

TEST(EventJournalTest, TypedEmitterMapsFields)
{
    EventJournal journal;
    journal.configure(8, true);
    journal.powerTransition(5'000'000, 3, "On", "Entering", "S3", 2.5,
                            310.0);

    const std::vector<JournalEvent> sorted = journal.sortedEvents();
    ASSERT_EQ(sorted.size(), 1u);
    const JournalEvent &ev = sorted.front();
    EXPECT_EQ(ev.kind, EventKind::PowerTransition);
    EXPECT_EQ(ev.domain, TrackDomain::Host);
    EXPECT_EQ(ev.track, 3);
    EXPECT_EQ(journal.label(ev.labelA), "On");
    EXPECT_EQ(journal.label(ev.labelB), "Entering");
    EXPECT_EQ(journal.label(ev.labelC), "S3");
    EXPECT_DOUBLE_EQ(ev.a, 2.5);
    EXPECT_DOUBLE_EQ(ev.b, 310.0);
}

TEST(EventJournalTest, TrackNamesSurviveReconfiguration)
{
    EventJournal journal;
    // Registration works while disabled (hosts are built before a bench
    // decides to enable tracing).
    journal.registerTrack(TrackDomain::Host, 7, "host07");
    journal.configure(8, true);
    EXPECT_EQ(journal.trackName(TrackDomain::Host, 7), "host07");
    EXPECT_EQ(journal.trackName(TrackDomain::Vm, 7), "");

    const std::int32_t track =
        journal.allocateTrack(TrackDomain::Host, "synthetic");
    EXPECT_GE(track, 1 << 20); // never collides with natural host ids
    EXPECT_EQ(journal.trackName(TrackDomain::Host, track), "synthetic");
}

// ----------------------------------------------------------------- facade

TEST(TelemetryTest, DisabledEmitsNothingAndAllocatesNothing)
{
    Telemetry telemetry; // default config: disabled

    // Typed emitters, raw records and label interning must all early-out.
    telemetry.journal().powerTransition(1, 0, "On", "Entering", "S3", 1.0,
                                        2.0);
    telemetry.journal().migrationStart(2, 1, 0, 1, 3.0);
    telemetry.journal().record(JournalEvent{});
    EXPECT_EQ(telemetry.journal().intern("wasted"), 0);
    const std::uint32_t series = telemetry.timeseries().seriesId("s");
    telemetry.timeseries().record(series, 5, 1.0);

    EXPECT_FALSE(telemetry.enabled());
    EXPECT_EQ(telemetry.journal().capacity(), 0u) << "no ring allocated";
    EXPECT_EQ(telemetry.journal().size(), 0u);
    EXPECT_EQ(telemetry.journal().recorded(), 0u);
    EXPECT_EQ(telemetry.journal().labelCount(), 1u)
        << "only the empty label exists";
    EXPECT_FALSE(telemetry.timeseries().enabled());
    EXPECT_TRUE(telemetry.timeseries().query(series, 0, 1'000).empty());
}

TEST(TelemetryTest, ConfigurePreallocatesAndDisableReleases)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    config.journalCapacity = 32;
    telemetry.configure(config);

    EXPECT_TRUE(telemetry.enabled());
    EXPECT_EQ(telemetry.journal().capacity(), 32u);
    telemetry.journal().sleepDecision(1'000, 4, "S3", 600.0);
    EXPECT_EQ(telemetry.journal().size(), 1u);

    config.enabled = false;
    telemetry.configure(config);
    EXPECT_EQ(telemetry.journal().capacity(), 0u);
    EXPECT_EQ(telemetry.journal().size(), 0u);
}

TEST(TelemetryTest, ResetDropsDataButKeepsRegistrations)
{
    Telemetry telemetry;
    TelemetryConfig config;
    config.enabled = true;
    telemetry.configure(config);

    TimeSeriesStore &store = telemetry.timeseries();
    const std::uint32_t kept = store.seriesId("kept");
    store.record(kept, 10, 3.0);
    telemetry.journal().wakeDecision(10, 0, "capacity-shortfall");

    telemetry.reset();
    EXPECT_EQ(telemetry.journal().size(), 0u);
    EXPECT_TRUE(store.query(kept, 0, 1'000).empty());
    // Same id still registered: no re-creation on lookup.
    EXPECT_EQ(store.seriesId("kept"), kept);
    EXPECT_EQ(store.seriesCount(), 1u);
}

// ------------------------------------------------ staging x wraparound

TEST(EventJournalTest, StagedFlushWrapsTheRingLikeDirectRecording)
{
    EventJournal journal;
    journal.configure(4, true);

    // Ten events staged across two stages, flushed in order under an
    // ambient decision scope: the flush assigns the same sequence numbers
    // and cause stamps direct record() calls would have.
    JournalStage a;
    JournalStage b;
    for (int i = 0; i < 6; ++i)
        a.slaViolation(i * 100, i, 0.5, 1000.0);
    for (int i = 6; i < 10; ++i)
        b.slaViolation(i * 100, i, 0.5, 1000.0);

    TraceScope scope(777);
    EXPECT_EQ(journal.flush(a), 6u);
    EXPECT_EQ(journal.flush(b), 4u);
    EXPECT_TRUE(a.empty());
    EXPECT_TRUE(b.empty());

    EXPECT_EQ(journal.recorded(), 10u);
    EXPECT_EQ(journal.size(), 4u);
    EXPECT_EQ(journal.dropped(), 6u);

    // Only the newest four survive, with contiguous sequence numbers and
    // the ambient cause stamped at flush time.
    const auto events = journal.sortedEvents();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 7u + i);
        EXPECT_EQ(events[i].track, static_cast<std::int32_t>(6 + i));
        EXPECT_EQ(events[i].cause, 777u);
    }
}

TEST(EventJournalTest, FlushIntoDisabledJournalClearsTheStage)
{
    EventJournal journal; // never configured: disabled
    JournalStage stage;
    stage.slaViolation(0, 1, 0.5, 1000.0);
    EXPECT_EQ(journal.flush(stage), 0u);
    EXPECT_TRUE(stage.empty());
    EXPECT_EQ(journal.recorded(), 0u);
}

// --------------------------------------------------- CSV field quoting

TEST(CsvQuoteTest, FollowsRfc4180)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote(""), "");
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvQuote("cr\rhere"), "\"cr\rhere\"");
    EXPECT_EQ(csvQuote(","), "\",\"");
    EXPECT_EQ(csvQuote("\""), "\"\"\"\"");
}

} // namespace
} // namespace vpm::telemetry
