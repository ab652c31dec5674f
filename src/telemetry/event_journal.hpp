/**
 * @file
 * Typed, sim-timestamped event journal backed by a preallocated ring buffer.
 *
 * The journal is the "what happened, when" half of telemetry: power-state
 * transitions, migration lifecycles, predictor forecasts vs. actuals,
 * manager suspend/resume decisions and SLA violations, each a fixed-size
 * record. Recording is allocation-free: strings are interned once into a
 * small label table and events carry label ids. When the ring fills, the
 * oldest events are overwritten and counted, so tracing a week-long run
 * costs bounded memory.
 *
 * Events may be recorded with non-monotonic timestamps (different sources
 * flush at different moments); exporters sort by time with insertion order
 * breaking ties, which keeps causality within a source.
 */

#ifndef VPM_TELEMETRY_EVENT_JOURNAL_HPP
#define VPM_TELEMETRY_EVENT_JOURNAL_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace vpm::telemetry {

/** Discriminator of a journal record. */
enum class EventKind : std::uint8_t
{
    PowerTransition, ///< host power FSM phase change
    MigrationStart,  ///< live migration began copying
    MigrationFinish, ///< live migration landed
    MigrationAbort,  ///< live migration abandoned mid-copy
    Forecast,        ///< predictor forecast vs. observed actual
    SleepDecision,   ///< manager put a host to sleep
    WakeDecision,    ///< manager woke a host
    MigrateDecision, ///< manager planned a batch of migrations
    SlaViolation,    ///< a VM-interval fell below the SLA threshold
    IdleTransition,  ///< idle-hierarchy level moved between C-states
    Alert,           ///< a watchdog rule tripped on the time-series store
};

/** Stable wire name of an event kind (used by the JSONL exporter). */
const char *toString(EventKind kind);

/** Which timeline an event belongs to (maps to a trace process). */
enum class TrackDomain : std::uint8_t
{
    Host,    ///< per-host timelines (power states)
    Vm,      ///< per-VM timelines (migrations, SLA)
    Manager, ///< the management control loop
};

const char *toString(TrackDomain domain);

/** Interned-string handle; 0 is always the empty string. */
using LabelId = std::uint16_t;

/**
 * One fixed-size journal record. Field meaning depends on kind:
 *
 *  PowerTransition: labelA=from phase, labelB=to phase, labelC=sleep state
 *                   ("" when none), a=seconds spent in the from-phase,
 *                   b=joules spent there (0 when unknown).
 *  MigrationStart:  a=source host, b=dest host, c=expected seconds.
 *  MigrationFinish: a=source host, b=dest host, c=actual seconds.
 *  MigrationAbort:  labelA=reason, a=source host, b=dest host.
 *  Forecast:        labelA=predictor name, a=forecast, b=actual.
 *  SleepDecision:   labelA=sleep state, a=expected idle seconds,
 *                   b=host idle watts, c=state sleep watts.
 *  WakeDecision:    labelA=reason.
 *  MigrateDecision: labelA=reason ("balance"/"evacuate"/"maintenance"),
 *                   a=planned moves, b=subject host (-1 when cluster-wide).
 *  SlaViolation:    a=satisfaction (granted/requested), b=demand MHz.
 *  IdleTransition:  labelA=level ("core"/"pkg"), labelB=from state,
 *                   labelC=to state, a=cores affected (1 for package),
 *                   b=seconds the group spent in the from-state,
 *                   c=transition joules charged.
 *  Alert:           labelA=rule name, labelB=rule kind ("above"/"below"/
 *                   "rate_above"/"absence"), labelC=series name,
 *                   a=observed value, b=threshold, c=consecutive buckets
 *                   the condition held before tripping.
 *
 * Every record additionally carries the causal context current when it was
 * recorded: `cause` is the decision id responsible for it (0 = none) and
 * `causeSeq` the sequence number of the record announcing that decision
 * (0 = unknown). Decision records carry their own id in `cause`.
 */
struct JournalEvent
{
    std::int64_t timeUs = 0; ///< simulated time, microseconds
    std::uint64_t seq = 0;   ///< insertion sequence (assigned by record(),
                             ///< starts at 1; 0 means "no record")
    std::uint64_t cause = 0;
    std::uint64_t causeSeq = 0;
    EventKind kind = EventKind::PowerTransition;
    TrackDomain domain = TrackDomain::Host;
    std::int32_t track = 0; ///< host/VM id within the domain
    LabelId labelA = 0;
    LabelId labelB = 0;
    LabelId labelC = 0;
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
};

/**
 * Thread-private staging buffer for events built away from the journal.
 *
 * The journal itself is single-threaded: record() mutates the ring,
 * assigns sequence numbers and reads the ambient TraceContext, and
 * intern() mutates the label table. Sharded evaluation loops therefore
 * append into one JournalStage per shard — plain vector pushes touching
 * nothing shared — and the owner flushes the stages in shard index order
 * on the main thread, which reproduces the exact record order (and hence
 * sequence numbers) of the sequential sweep.
 *
 * Only label-free events (or events whose labels were interned up front
 * on the main thread) may be staged: intern() must never be called from
 * a shard body.
 */
class JournalStage
{
  public:
    /** Stage a raw event (seq/cause are assigned at flush time). */
    void record(const JournalEvent &event) { staged_.push_back(event); }

    /** Stage an SLA-violation sample (label-free by construction). */
    void slaViolation(std::int64_t t_us, std::int32_t vm,
                      double satisfaction, double demand_mhz);

    bool empty() const { return staged_.empty(); }
    std::size_t size() const { return staged_.size(); }
    void clear() { staged_.clear(); }

  private:
    friend class EventJournal;
    std::vector<JournalEvent> staged_;
};

/** Preallocated ring buffer of typed events plus the label/track tables. */
class EventJournal
{
  public:
    EventJournal() = default;

    EventJournal(const EventJournal &) = delete;
    EventJournal &operator=(const EventJournal &) = delete;

    /**
     * (Re)initialize: preallocates @p capacity events when enabling and
     * releases the buffer when disabling. Existing events are discarded.
     */
    void configure(std::size_t capacity, bool enabled);

    bool enabled() const { return enabled_; }

    /** @name Label interning */
    ///@{
    /**
     * Intern @p label and return its id; the empty string is always id 0.
     * No-op returning 0 when the journal is disabled. The table saturates
     * at 65535 labels (further strings map to 0) — far beyond the phase,
     * state and reason vocabulary of a run.
     */
    LabelId intern(std::string_view label);

    /** The string behind an id ("" for unknown ids). */
    const std::string &label(LabelId id) const;

    /** Number of interned labels (including the empty string). */
    std::size_t labelCount() const { return labels_.size(); }
    ///@}

    /** @name Track registry */
    ///@{
    /**
     * Give a (domain, id) timeline a display name (e.g. host 3 ->
     * "host03"). Registration is init-time and idempotent; it works even
     * while disabled so tracks named at construction keep their names if
     * telemetry is enabled later. The registry is locked: concurrent
     * sessions (sweep cells, replay branches) build hosts, and so name
     * tracks, on several threads at once.
     */
    void registerTrack(TrackDomain domain, std::int32_t track,
                       std::string_view name);

    /**
     * Allocate a fresh track id in @p domain (from a high base so it never
     * collides with natural host/VM ids) and register its name.
     */
    std::int32_t allocateTrack(TrackDomain domain, std::string_view name);

    /** Display name of a track ("" when never registered). */
    const std::string &trackName(TrackDomain domain,
                                 std::int32_t track) const;
    ///@}

    /** @name Recording (all early-out when disabled) */
    ///@{
    /**
     * Append a raw event; assigns its sequence number (starting at 1) and,
     * when the event carries no cause of its own, stamps the ambient
     * TraceContext onto it.
     * @return the assigned sequence number (0 when disabled).
     */
    std::uint64_t record(JournalEvent event);

    void powerTransition(std::int64_t t_us, std::int32_t host,
                         std::string_view from, std::string_view to,
                         std::string_view state, double phase_seconds,
                         double joules);
    void migrationStart(std::int64_t t_us, std::int32_t vm,
                        std::int32_t source, std::int32_t dest,
                        double expected_seconds);
    void migrationFinish(std::int64_t t_us, std::int32_t vm,
                         std::int32_t source, std::int32_t dest,
                         double seconds);
    void migrationAbort(std::int64_t t_us, std::int32_t vm,
                        std::int32_t source, std::int32_t dest,
                        std::string_view reason);
    void forecast(std::int64_t t_us, std::string_view predictor,
                  double forecast_value, double actual);
    void sleepDecision(std::int64_t t_us, std::int32_t host,
                       std::string_view state,
                       double expected_idle_seconds, double idle_watts = 0.0,
                       double sleep_watts = 0.0);
    void wakeDecision(std::int64_t t_us, std::int32_t host,
                      std::string_view reason);
    /** @return the record's sequence number, for TraceScope::setCauseSeq. */
    std::uint64_t migrateDecision(std::int64_t t_us, std::string_view reason,
                                  int planned_moves,
                                  std::int32_t subject_host);
    void slaViolation(std::int64_t t_us, std::int32_t vm,
                      double satisfaction, double demand_mhz);
    void idleTransition(std::int64_t t_us, std::int32_t host,
                        std::string_view level, std::string_view from,
                        std::string_view to, int cores, double from_seconds,
                        double joules);
    /** Record a watchdog alert. Carries the ambient TraceContext like any
     *  other record, so the decision active when the rule tripped is
     *  recoverable via trace_analyze.
     *  @return the record's sequence number (0 when disabled). */
    std::uint64_t alert(std::int64_t t_us, std::string_view rule,
                        std::string_view rule_kind, std::string_view series,
                        double value, double threshold, int buckets);

    /**
     * Record every event staged in @p stage, in staging order, then clear
     * the stage. Must run on the journal's (main) thread: this is where
     * sequence numbers are assigned and the ambient TraceContext is
     * stamped, exactly as if each event had been record()ed directly.
     * @return the number of events recorded (0 when disabled; the stage
     *         is cleared either way).
     */
    std::size_t flush(JournalStage &stage);
    ///@}

    /** @name Inspection */
    ///@{
    /** Events currently retained (<= capacity). */
    std::size_t size() const { return size_; }

    std::size_t capacity() const { return events_.size(); }

    /** Total events ever recorded, including overwritten ones. */
    std::uint64_t recorded() const { return recorded_; }

    /** Events lost to ring wraparound. */
    std::uint64_t dropped() const
    {
        return recorded_ - static_cast<std::uint64_t>(size_);
    }

    /**
     * Retained events in chronological order; ties resolve in insertion
     * order (stable), so out-of-order recording cannot scramble causality
     * within one source.
     */
    std::vector<JournalEvent> sortedEvents() const;

    /** Drop all events (labels and tracks survive). */
    void clear();
    ///@}

  private:
    bool enabled_ = false;
    std::vector<JournalEvent> events_; ///< ring storage, preallocated
    std::size_t head_ = 0;             ///< next write position
    std::size_t size_ = 0;
    std::uint64_t recorded_ = 0;
    std::uint64_t nextSeq_ = 1; ///< 0 is reserved for "no record"

    std::vector<std::string> labels_{std::string()};
    std::unordered_map<std::string, LabelId> labelIndex_{{std::string(), 0}};

    mutable std::mutex trackMutex_; ///< guards the two track fields
    std::unordered_map<std::uint64_t, std::string> trackNames_;
    std::int32_t nextAllocatedTrack_ = 1 << 20;
};

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_EVENT_JOURNAL_HPP
