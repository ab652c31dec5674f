#include "simcore/simulator.hpp"

#include <atomic>
#include <utility>

#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::sim {

namespace {

std::atomic<std::uint64_t> gEventsDispatched{0};

} // namespace

std::uint64_t
Simulator::processEventsDispatched()
{
    return gEventsDispatched.load(std::memory_order_relaxed);
}

void
Simulator::publishDispatched(std::uint64_t before) const
{
    gEventsDispatched.fetch_add(eventsProcessed_ - before,
                                std::memory_order_relaxed);
}

EventId
Simulator::schedule(SimTime delay, EventCallback callback, std::string label)
{
    if (delay < SimTime())
        panic("Simulator::schedule: negative delay %lld us (label '%s')",
              static_cast<long long>(delay.micros()), label.c_str());
    PROF_ZONE("sim.queue.push");
    return queue_.schedule(now_ + delay, std::move(callback),
                           std::move(label));
}

EventId
Simulator::scheduleAt(SimTime when, EventCallback callback, std::string label)
{
    if (when < now_)
        panic("Simulator::scheduleAt: time %lld us is in the past "
              "(now %lld us, label '%s')",
              static_cast<long long>(when.micros()),
              static_cast<long long>(now_.micros()), label.c_str());
    PROF_ZONE("sim.queue.push");
    return queue_.schedule(when, std::move(callback), std::move(label));
}

void
Simulator::dispatchOne()
{
    if (!telemetry::Profiler::profilingEnabled()) {
        EventQueue::Fired fired = queue_.pop();
        if (fired.when < now_)
            panic("Simulator: event '%s' would move the clock backwards "
                  "(%lld us < %lld us)", fired.label.c_str(),
                  static_cast<long long>(fired.when.micros()),
                  static_cast<long long>(now_.micros()));
        now_ = fired.when;
        ++eventsProcessed_;
        // Run the callback under the context its scheduler captured, so
        // any events it schedules — and any journal records it emits —
        // inherit the decision that ultimately caused it.
        telemetry::TraceScope scope(fired.context);
        fired.callback();
        return;
    }

    // Profiled path: the "sim.dispatch" / "sim.queue.pop" zones and the
    // per-label dispatch timing share three clock reads per event instead
    // of six ProfileScope-managed ones — at fleet-scale event rates the
    // clock reads themselves would otherwise dominate the profile.
    telemetry::Profiler &prof = telemetry::Profiler::instance();
    const std::uint64_t t0 = telemetry::Profiler::nowNs();
    const std::uint32_t dispatch_zone = prof.enter("sim.dispatch");
    const std::uint32_t pop_zone = prof.enter("sim.queue.pop");
    EventQueue::Fired fired = queue_.pop();
    const std::uint64_t t1 = telemetry::Profiler::nowNs();
    prof.leaveAt(pop_zone, t0, t1);
    if (fired.when < now_)
        panic("Simulator: event '%s' would move the clock backwards "
              "(%lld us < %lld us)", fired.label.c_str(),
              static_cast<long long>(fired.when.micros()),
              static_cast<long long>(now_.micros()));
    now_ = fired.when;
    ++eventsProcessed_;
    {
        telemetry::TraceScope scope(fired.context);
        fired.callback();
    }
    const std::uint64_t t2 = telemetry::Profiler::nowNs();
    // Per-event-label wall-clock timing: which event *type* burns the
    // time, complementing the hierarchical zones inside the callback.
    prof.recordDispatch(fired.label.empty() ? "(unlabeled)" : fired.label,
                        t2 - t1);
    prof.leaveAt(dispatch_zone, t0, t2);
}

SimTime
Simulator::run()
{
    stopRequested_ = false;
    const std::uint64_t before = eventsProcessed_;
    while (!queue_.empty() && !stopRequested_)
        dispatchOne();
    publishDispatched(before);
    return now_;
}

void
Simulator::runUntil(SimTime horizon)
{
    if (horizon < now_)
        panic("Simulator::runUntil: horizon %lld us is in the past "
              "(now %lld us)", static_cast<long long>(horizon.micros()),
              static_cast<long long>(now_.micros()));

    stopRequested_ = false;
    const std::uint64_t before = eventsProcessed_;
    while (!queue_.empty() && !stopRequested_ &&
           queue_.nextTime() <= horizon) {
        dispatchOne();
    }
    publishDispatched(before);
    if (!stopRequested_)
        now_ = horizon;
}

} // namespace vpm::sim
