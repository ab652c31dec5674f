/**
 * @file
 * The discrete-event simulation loop.
 *
 * A Simulator owns the clock and the pending-event set. Model components
 * hold a reference to the Simulator, schedule callbacks against it, and read
 * the clock through now(). One Simulator per experiment; it is not
 * thread-safe and does not need to be.
 */

#ifndef VPM_SIMCORE_SIMULATOR_HPP
#define VPM_SIMCORE_SIMULATOR_HPP

#include <cstdint>
#include <string>

#include "simcore/event_queue.hpp"
#include "simcore/sim_time.hpp"

namespace vpm::sim {

/**
 * Discrete-event simulation engine.
 *
 * Invariants:
 *  - The clock never moves backwards.
 *  - Events at equal times fire in scheduling order.
 *  - Callbacks may schedule and cancel further events, including at the
 *    current time (they fire after the current callback returns).
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule a callback after a non-negative delay from now.
     *
     * @param delay Offset from the current time; must be >= 0.
     * @param callback Work to run.
     * @param label Optional tag for tracing/debugging.
     */
    EventId schedule(SimTime delay, EventCallback callback,
                     std::string label = {});

    /** Schedule a callback at an absolute time; must be >= now(). */
    EventId scheduleAt(SimTime when, EventCallback callback,
                       std::string label = {});

    /** Cancel a pending event; see EventQueue::cancel. */
    bool cancel(EventId id) { return queue_.cancel(id); }

    /** true if the given event has been scheduled and not yet fired. */
    bool pending(EventId id) const { return queue_.pending(id); }

    /** Number of pending events. */
    std::size_t pendingCount() const { return queue_.size(); }

    /** Metadata of every pending event in firing order — the replay
     *  checkpoint's event-queue section (see EventQueue::pendingSnapshot
     *  for why callbacks are absent). */
    std::vector<EventQueue::PendingEvent> pendingSnapshot() const
    {
        return queue_.pendingSnapshot();
    }

    /**
     * Run until the event set drains or stop() is called.
     * @return The time of the last event processed.
     */
    SimTime run();

    /**
     * Process all events with time <= horizon, then advance the clock to
     * exactly the horizon (even if no event fired there). Events scheduled
     * beyond the horizon remain pending; run may be continued later.
     */
    void runUntil(SimTime horizon);

    /**
     * Ask the loop to stop after the current callback returns. Pending
     * events are retained, so the run may be resumed.
     */
    void requestStop() { stopRequested_ = true; }

    /** Total events dispatched so far. */
    std::uint64_t eventsProcessed() const { return eventsProcessed_; }

    /**
     * Events dispatched by every Simulator in the process. Each run() /
     * runUntil() adds its own dispatch count once when it returns, so the
     * dispatch loop itself touches no shared state; a harness reads the
     * difference around the work it measures.
     */
    static std::uint64_t processEventsDispatched();

  private:
    /** Pop and dispatch one event. Queue must be non-empty. */
    void dispatchOne();

    /** Add the events dispatched since @p before to the process total. */
    void publishDispatched(std::uint64_t before) const;

    EventQueue queue_;
    SimTime now_;
    std::uint64_t eventsProcessed_ = 0;
    bool stopRequested_ = false;
};

} // namespace vpm::sim

#endif // VPM_SIMCORE_SIMULATOR_HPP
