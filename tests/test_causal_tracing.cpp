/** @file Tests for ambient causal trace propagation (TraceContext). */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datacenter/cluster.hpp"
#include "datacenter/migration.hpp"
#include "power/power_state_machine.hpp"
#include "power/server_models.hpp"
#include "simcore/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"
#include "workload/demand_trace.hpp"

namespace vpm {
namespace {

TEST(TraceContextTest, ScopeSwapsAndRestoresNested)
{
    EXPECT_EQ(telemetry::currentContext().cause, 0u);
    {
        telemetry::TraceScope outer(7);
        EXPECT_EQ(telemetry::currentContext().cause, 7u);
        {
            telemetry::TraceScope inner(
                telemetry::TraceContext{9, 123});
            EXPECT_EQ(telemetry::currentContext().cause, 9u);
            EXPECT_EQ(telemetry::currentContext().causeSeq, 123u);
        }
        EXPECT_EQ(telemetry::currentContext().cause, 7u);
        EXPECT_EQ(telemetry::currentContext().causeSeq, 0u);
    }
    EXPECT_EQ(telemetry::currentContext().cause, 0u);
}

TEST(TraceContextTest, DecisionIdsAreUniqueAndMonotonic)
{
    const std::uint64_t a = telemetry::newDecisionId();
    const std::uint64_t b = telemetry::newDecisionId();
    EXPECT_GT(a, 0u);
    EXPECT_GT(b, a);
}

TEST(TraceContextTest, ContextIsPerThreadAndIdsStayUnique)
{
    // Concurrent sessions each see only their own context, and the ids
    // they mint never collide.
    const telemetry::TraceScope scope(telemetry::TraceContext{5, 1});
    constexpr int kPerThread = 1000;
    std::vector<std::uint64_t> ids[2];
    telemetry::TraceContext seen[2];
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w) {
        workers.emplace_back([&, w] {
            seen[w] = telemetry::currentContext();
            const telemetry::TraceScope own(
                telemetry::TraceContext{100u + static_cast<unsigned>(w), 0});
            for (int i = 0; i < kPerThread; ++i)
                ids[w].push_back(telemetry::newDecisionId());
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    for (const telemetry::TraceContext &context : seen) {
        EXPECT_EQ(context.cause, 0u);
        EXPECT_EQ(context.causeSeq, 0u);
    }
    EXPECT_EQ(telemetry::currentContext().cause, 5u);
    EXPECT_EQ(telemetry::currentContext().causeSeq, 1u);
    std::vector<std::uint64_t> all = ids[0];
    all.insert(all.end(), ids[1].begin(), ids[1].end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(TraceContextTest, SetCauseSeqUpdatesAmbientContext)
{
    telemetry::TraceScope scope(5);
    scope.setCauseSeq(42);
    EXPECT_EQ(telemetry::currentContext().cause, 5u);
    EXPECT_EQ(telemetry::currentContext().causeSeq, 42u);
}

TEST(CausalTracingTest, SimulatorPropagatesContextAcrossSchedules)
{
    sim::Simulator simulator;
    std::vector<std::uint64_t> seen;

    // Scheduled outside any scope: the child runs with no cause.
    simulator.schedule(sim::SimTime::seconds(1.0), [&] {
        seen.push_back(telemetry::currentContext().cause);
        // Scheduled from inside a scope: the grandchild inherits it even
        // though it fires long after the scope was destroyed.
        telemetry::TraceScope scope(11);
        simulator.schedule(sim::SimTime::seconds(1.0), [&] {
            seen.push_back(telemetry::currentContext().cause);
            simulator.schedule(sim::SimTime::seconds(1.0), [&] {
                seen.push_back(telemetry::currentContext().cause);
            });
        });
    });
    simulator.run();

    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], 0u);
    EXPECT_EQ(seen[1], 11u); // captured at schedule, reinstalled at fire
    EXPECT_EQ(seen[2], 11u); // and propagated transitively
}

TEST(CausalTracingTest, ContextDoesNotLeakBetweenSiblingEvents)
{
    sim::Simulator simulator;
    std::uint64_t sibling_cause = 99;

    {
        telemetry::TraceScope scope(21);
        simulator.schedule(sim::SimTime::seconds(1.0), [] {});
    }
    // Scheduled without a scope, fires after the caused event.
    simulator.schedule(sim::SimTime::seconds(2.0), [&] {
        sibling_cause = telemetry::currentContext().cause;
    });
    simulator.run();
    EXPECT_EQ(sibling_cause, 0u);
}

/** Journal-backed fixture: tracing enabled, small fleet. */
class CausalJournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::TelemetryConfig config;
        config.enabled = true;
        config.journalCapacity = 1024;
        telemetry::global().configure(config);
    }

    void
    TearDown() override
    {
        telemetry::TelemetryConfig config;
        config.enabled = false;
        telemetry::global().configure(config);
    }

    /** Journal events of @p kind, chronological. */
    static std::vector<telemetry::JournalEvent>
    eventsOfKind(telemetry::EventKind kind)
    {
        std::vector<telemetry::JournalEvent> out;
        for (const telemetry::JournalEvent &ev :
             telemetry::global().journal().sortedEvents()) {
            if (ev.kind == kind)
                out.push_back(ev);
        }
        return out;
    }
};

TEST_F(CausalJournalTest, LatchedWakeAttributesExitToWakeDecision)
{
    sim::Simulator simulator;
    const power::HostPowerSpec spec = power::enterpriseBlade2013();
    power::PowerStateMachine fsm(simulator, spec);

    // Sleep under decision 101; while the entry is still in flight, a
    // wake arrives under decision 202. The exit transitions must be
    // attributed to 202, not to the sleep decision whose entry-complete
    // event mechanically starts them.
    {
        telemetry::TraceScope scope(101);
        ASSERT_TRUE(fsm.requestSleep("S3"));
    }
    simulator.schedule(
        spec.findSleepState("S3")->entryLatency * 0.5, [&] {
            telemetry::TraceScope scope(202);
            fsm.requestWake();
        });
    simulator.run();
    ASSERT_TRUE(fsm.isOn());

    const auto transitions =
        eventsOfKind(telemetry::EventKind::PowerTransition);
    ASSERT_GE(transitions.size(), 3u);
    const telemetry::EventJournal &journal = telemetry::global().journal();
    for (const telemetry::JournalEvent &ev : transitions) {
        const std::string from = journal.label(ev.labelA);
        if (from == "On" || from == "Entering")
            EXPECT_EQ(ev.cause, 101u) << "entry span from " << from;
        else
            EXPECT_EQ(ev.cause, 202u) << "exit span from " << from;
    }
}

TEST_F(CausalJournalTest, QueuedMigrationKeepsRequestingDecision)
{
    sim::Simulator simulator;
    dc::Cluster cluster(simulator);
    const power::HostPowerSpec spec = power::enterpriseBlade2013();
    for (int i = 0; i < 3; ++i)
        cluster.addHost(dc::HostConfig{}, spec);
    const auto placed_vm = [&](const std::string &name) -> dc::Vm & {
        workload::VmWorkloadSpec vm_spec;
        vm_spec.name = name;
        vm_spec.cpuMhz = 1000.0;
        vm_spec.memoryMb = 1024.0;
        vm_spec.trace = std::make_shared<workload::ConstantTrace>(0.5);
        dc::Vm &vm = cluster.addVm(vm_spec);
        cluster.placeVm(vm.id(), 0);
        return vm;
    };
    dc::Vm &vm_a = placed_vm("vm0");
    dc::Vm &vm_b = placed_vm("vm1");

    dc::MigrationConfig config;
    config.maxConcurrentPerHost = 1; // force queueing on the source
    dc::MigrationEngine engine(simulator, cluster, config);

    {
        telemetry::TraceScope scope(301);
        ASSERT_TRUE(engine.request(vm_a.id(), 1));
    }
    {
        // Queued behind the source's single slot; starts from within the
        // first migration's completion event.
        telemetry::TraceScope scope(302);
        ASSERT_TRUE(engine.request(vm_b.id(), 2));
    }
    simulator.run();
    EXPECT_EQ(engine.completedCount(), 2u);

    const auto starts =
        eventsOfKind(telemetry::EventKind::MigrationStart);
    ASSERT_EQ(starts.size(), 2u);
    EXPECT_EQ(starts[0].cause, 301u);
    EXPECT_EQ(starts[1].cause, 302u);
    const auto finishes =
        eventsOfKind(telemetry::EventKind::MigrationFinish);
    ASSERT_EQ(finishes.size(), 2u);
    EXPECT_EQ(finishes[0].cause, 301u);
    EXPECT_EQ(finishes[1].cause, 302u);
}

} // namespace
} // namespace vpm
