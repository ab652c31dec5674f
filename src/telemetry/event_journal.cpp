#include "telemetry/event_journal.hpp"

#include <algorithm>
#include <limits>

#include "telemetry/profiler.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::telemetry {

namespace {

/** Composite key for the (domain, track) -> name table. */
std::uint64_t
trackKey(TrackDomain domain, std::int32_t track)
{
    return (static_cast<std::uint64_t>(domain) << 32) |
           static_cast<std::uint32_t>(track);
}

const std::string kEmpty;

} // namespace

const char *
toString(EventKind kind)
{
    switch (kind) {
      case EventKind::PowerTransition:
        return "power_transition";
      case EventKind::MigrationStart:
        return "migration_start";
      case EventKind::MigrationFinish:
        return "migration_finish";
      case EventKind::MigrationAbort:
        return "migration_abort";
      case EventKind::Forecast:
        return "forecast";
      case EventKind::SleepDecision:
        return "sleep_decision";
      case EventKind::WakeDecision:
        return "wake_decision";
      case EventKind::MigrateDecision:
        return "migrate_decision";
      case EventKind::SlaViolation:
        return "sla_violation";
      case EventKind::IdleTransition:
        return "idle_transition";
      case EventKind::Alert:
        return "alert";
    }
    return "unknown";
}

const char *
toString(TrackDomain domain)
{
    switch (domain) {
      case TrackDomain::Host:
        return "host";
      case TrackDomain::Vm:
        return "vm";
      case TrackDomain::Manager:
        return "manager";
    }
    return "unknown";
}

void
EventJournal::configure(std::size_t capacity, bool enabled)
{
    enabled_ = enabled;
    events_.clear();
    events_.shrink_to_fit();
    if (enabled_ && capacity > 0)
        events_.resize(capacity);
    head_ = 0;
    size_ = 0;
    recorded_ = 0;
    nextSeq_ = 1;
}

LabelId
EventJournal::intern(std::string_view label)
{
    if (!enabled_ || label.empty())
        return 0;
    const auto it = labelIndex_.find(std::string(label));
    if (it != labelIndex_.end())
        return it->second;
    if (labels_.size() > std::numeric_limits<LabelId>::max())
        return 0; // table saturated; degrade to the empty label
    const auto id = static_cast<LabelId>(labels_.size());
    labels_.emplace_back(label);
    labelIndex_.emplace(std::string(label), id);
    return id;
}

const std::string &
EventJournal::label(LabelId id) const
{
    if (id >= labels_.size())
        return kEmpty;
    return labels_[id];
}

void
EventJournal::registerTrack(TrackDomain domain, std::int32_t track,
                            std::string_view name)
{
    const std::lock_guard<std::mutex> guard(trackMutex_);
    trackNames_[trackKey(domain, track)] = std::string(name);
}

std::int32_t
EventJournal::allocateTrack(TrackDomain domain, std::string_view name)
{
    const std::lock_guard<std::mutex> guard(trackMutex_);
    const std::int32_t track = nextAllocatedTrack_++;
    trackNames_[trackKey(domain, track)] = std::string(name);
    return track;
}

const std::string &
EventJournal::trackName(TrackDomain domain, std::int32_t track) const
{
    const std::lock_guard<std::mutex> guard(trackMutex_);
    const auto it = trackNames_.find(trackKey(domain, track));
    if (it == trackNames_.end())
        return kEmpty;
    return it->second;
}

std::uint64_t
EventJournal::record(JournalEvent event)
{
    // The observability tax, made visible: journal appends are on the
    // simulation hot path whenever tracing is enabled.
    PROF_ZONE("telemetry.journal.record");
    if (!enabled_ || events_.empty())
        return 0;
    event.seq = nextSeq_++;
    if (event.cause == 0) {
        const TraceContext context = currentContext();
        event.cause = context.cause;
        event.causeSeq = context.causeSeq;
    }
    events_[head_] = event;
    head_ = (head_ + 1) % events_.size();
    if (size_ < events_.size())
        ++size_;
    ++recorded_;
    return event.seq;
}

void
EventJournal::powerTransition(std::int64_t t_us, std::int32_t host,
                              std::string_view from, std::string_view to,
                              std::string_view state, double phase_seconds,
                              double joules)
{
    if (!enabled_)
        return;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::PowerTransition;
    ev.domain = TrackDomain::Host;
    ev.track = host;
    ev.labelA = intern(from);
    ev.labelB = intern(to);
    ev.labelC = intern(state);
    ev.a = phase_seconds;
    ev.b = joules;
    record(ev);
}

void
EventJournal::migrationStart(std::int64_t t_us, std::int32_t vm,
                             std::int32_t source, std::int32_t dest,
                             double expected_seconds)
{
    if (!enabled_)
        return;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::MigrationStart;
    ev.domain = TrackDomain::Vm;
    ev.track = vm;
    ev.a = source;
    ev.b = dest;
    ev.c = expected_seconds;
    record(ev);
}

void
EventJournal::migrationFinish(std::int64_t t_us, std::int32_t vm,
                              std::int32_t source, std::int32_t dest,
                              double seconds)
{
    if (!enabled_)
        return;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::MigrationFinish;
    ev.domain = TrackDomain::Vm;
    ev.track = vm;
    ev.a = source;
    ev.b = dest;
    ev.c = seconds;
    record(ev);
}

void
EventJournal::migrationAbort(std::int64_t t_us, std::int32_t vm,
                             std::int32_t source, std::int32_t dest,
                             std::string_view reason)
{
    if (!enabled_)
        return;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::MigrationAbort;
    ev.domain = TrackDomain::Vm;
    ev.track = vm;
    ev.labelA = intern(reason);
    ev.a = source;
    ev.b = dest;
    record(ev);
}

void
EventJournal::forecast(std::int64_t t_us, std::string_view predictor,
                       double forecast_value, double actual)
{
    if (!enabled_)
        return;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::Forecast;
    ev.domain = TrackDomain::Manager;
    ev.track = 0;
    ev.labelA = intern(predictor);
    ev.a = forecast_value;
    ev.b = actual;
    record(ev);
}

void
EventJournal::sleepDecision(std::int64_t t_us, std::int32_t host,
                            std::string_view state,
                            double expected_idle_seconds, double idle_watts,
                            double sleep_watts)
{
    if (!enabled_)
        return;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::SleepDecision;
    ev.domain = TrackDomain::Host;
    ev.track = host;
    ev.labelA = intern(state);
    ev.a = expected_idle_seconds;
    ev.b = idle_watts;
    ev.c = sleep_watts;
    record(ev);
}

void
EventJournal::wakeDecision(std::int64_t t_us, std::int32_t host,
                           std::string_view reason)
{
    if (!enabled_)
        return;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::WakeDecision;
    ev.domain = TrackDomain::Host;
    ev.track = host;
    ev.labelA = intern(reason);
    record(ev);
}

std::uint64_t
EventJournal::migrateDecision(std::int64_t t_us, std::string_view reason,
                              int planned_moves, std::int32_t subject_host)
{
    if (!enabled_)
        return 0;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::MigrateDecision;
    ev.domain = TrackDomain::Manager;
    ev.track = 0;
    ev.labelA = intern(reason);
    ev.a = planned_moves;
    ev.b = subject_host;
    return record(ev);
}

void
EventJournal::slaViolation(std::int64_t t_us, std::int32_t vm,
                           double satisfaction, double demand_mhz)
{
    if (!enabled_)
        return;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::SlaViolation;
    ev.domain = TrackDomain::Vm;
    ev.track = vm;
    ev.a = satisfaction;
    ev.b = demand_mhz;
    record(ev);
}

void
EventJournal::idleTransition(std::int64_t t_us, std::int32_t host,
                             std::string_view level, std::string_view from,
                             std::string_view to, int cores,
                             double from_seconds, double joules)
{
    if (!enabled_)
        return;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::IdleTransition;
    ev.domain = TrackDomain::Host;
    ev.track = host;
    ev.labelA = intern(level);
    ev.labelB = intern(from);
    ev.labelC = intern(to);
    ev.a = cores;
    ev.b = from_seconds;
    ev.c = joules;
    record(ev);
}

std::uint64_t
EventJournal::alert(std::int64_t t_us, std::string_view rule,
                    std::string_view rule_kind, std::string_view series,
                    double value, double threshold, int buckets)
{
    if (!enabled_)
        return 0;
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::Alert;
    ev.domain = TrackDomain::Manager;
    ev.track = 0;
    ev.labelA = intern(rule);
    ev.labelB = intern(rule_kind);
    ev.labelC = intern(series);
    ev.a = value;
    ev.b = threshold;
    ev.c = buckets;
    return record(ev);
}

void
JournalStage::slaViolation(std::int64_t t_us, std::int32_t vm,
                           double satisfaction, double demand_mhz)
{
    JournalEvent ev;
    ev.timeUs = t_us;
    ev.kind = EventKind::SlaViolation;
    ev.domain = TrackDomain::Vm;
    ev.track = vm;
    ev.a = satisfaction;
    ev.b = demand_mhz;
    staged_.push_back(ev);
}

std::size_t
EventJournal::flush(JournalStage &stage)
{
    std::size_t flushed = 0;
    if (enabled_) {
        for (const JournalEvent &ev : stage.staged_) {
            record(ev);
            ++flushed;
        }
    }
    stage.clear();
    return flushed;
}

std::vector<JournalEvent>
EventJournal::sortedEvents() const
{
    std::vector<JournalEvent> out;
    out.reserve(size_);
    // Oldest-first walk of the ring.
    const std::size_t start =
        (head_ + events_.size() - size_) % std::max<std::size_t>(
            events_.size(), 1);
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(events_[(start + i) % events_.size()]);
    std::stable_sort(out.begin(), out.end(),
                     [](const JournalEvent &x, const JournalEvent &y) {
                         return x.timeUs < y.timeUs;
                     });
    return out;
}

void
EventJournal::clear()
{
    head_ = 0;
    size_ = 0;
    recorded_ = 0;
    nextSeq_ = 1;
}

} // namespace vpm::telemetry
