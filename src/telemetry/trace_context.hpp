/**
 * @file
 * Causal trace context: which decision an emission is happening "because of".
 *
 * A simulation runs on one thread, so causality is ambient: whatever
 * decision id is installed while code runs on that thread is the cause of
 * everything that code emits or schedules. The context is thread-local:
 * concurrent sessions (sweep cells, replay branches) each see only their
 * own, and a thread outside any scope reads {0, 0}. `EventQueue::schedule()` captures the current
 * context into the scheduled event and `Simulator::dispatchOne()` reinstalls
 * it around the callback, so context flows through arbitrarily deep event
 * chains (entry -> latched wake -> exit -> retry) without any plumbing in
 * the domain code. `EventJournal::record()` stamps the current context onto
 * every record, which is how journal rows gain their `cause` field for free.
 *
 * Decision ids are minted by the management layer (one per sleep / wake /
 * migration-batch decision) from a process-global atomic counter that is
 * never reset, so ids stay unique across the back-to-back per-policy runs
 * a bench performs even though simulated time restarts at zero, and
 * across sessions running concurrently on several threads. Ids are dense
 * and reproducible only while one session mints at a time: concurrent
 * sessions interleave their draws, so their ids stay unique but depend
 * on scheduling.
 */

#ifndef VPM_TELEMETRY_TRACE_CONTEXT_HPP
#define VPM_TELEMETRY_TRACE_CONTEXT_HPP

#include <cstdint>

namespace vpm::telemetry {

/** The ambient cause of whatever is currently executing. */
struct TraceContext
{
    /** Decision id responsible for the current activity; 0 = none. */
    std::uint64_t cause = 0;

    /** Journal sequence number of the record that announced the cause
     *  (e.g. the migrate_decision row); 0 = unknown/none. */
    std::uint64_t causeSeq = 0;
};

/** The context installed on this thread ({0, 0} outside any scope). */
TraceContext currentContext();

/** Replace this thread's context (prefer TraceScope, which restores). */
void setCurrentContext(TraceContext context);

/** Mint a fresh decision id (from 1, never reset, unique process-wide;
 *  safe to call from concurrent sessions). */
std::uint64_t newDecisionId();

/**
 * RAII installer: constructor swaps in a context, destructor restores the
 * previous one. Scopes nest; the innermost wins, which is what causality
 * means when one decision's handler makes a sub-decision.
 */
class TraceScope
{
  public:
    explicit TraceScope(TraceContext context);

    /** Convenience: install {cause, 0}. */
    explicit TraceScope(std::uint64_t cause);

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /**
     * Late-bind the announcing record's sequence number into the installed
     * context (the decision row can only be journaled after the scope is
     * open, because the row itself must carry the decision id).
     */
    void setCauseSeq(std::uint64_t seq);

    ~TraceScope();

  private:
    TraceContext previous_;
};

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_TRACE_CONTEXT_HPP
