#include "telemetry/trace_context.hpp"

#include <atomic>

namespace vpm::telemetry {

namespace {

// Per thread (see header): a simulation runs on one thread, and sessions
// on other threads must not see its context. Trivially constructible, so
// the common path — a schedule() capturing the context — stays two loads.
thread_local TraceContext g_current;
std::atomic<std::uint64_t> g_nextDecisionId{1};

} // namespace

TraceContext
currentContext()
{
    return g_current;
}

void
setCurrentContext(TraceContext context)
{
    g_current = context;
}

std::uint64_t
newDecisionId()
{
    return g_nextDecisionId++;
}

TraceScope::TraceScope(TraceContext context) : previous_(g_current)
{
    g_current = context;
}

TraceScope::TraceScope(std::uint64_t cause)
    : TraceScope(TraceContext{cause, 0})
{
}

void
TraceScope::setCauseSeq(std::uint64_t seq)
{
    g_current.causeSeq = seq;
}

TraceScope::~TraceScope()
{
    g_current = previous_;
}

} // namespace vpm::telemetry
