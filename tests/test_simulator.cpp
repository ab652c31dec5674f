/** @file Unit tests for the Simulator event loop. */

#include <gtest/gtest.h>

#include <vector>

#include "simcore/simulator.hpp"

namespace vpm::sim {
namespace {

TEST(SimulatorTest, ClockStartsAtZero)
{
    Simulator simulator;
    EXPECT_EQ(simulator.now(), SimTime());
}

TEST(SimulatorTest, RunAdvancesClockToEvents)
{
    Simulator simulator;
    SimTime seen;
    simulator.schedule(SimTime::seconds(5.0),
                       [&] { seen = simulator.now(); });
    const SimTime end = simulator.run();
    EXPECT_EQ(seen, SimTime::seconds(5.0));
    EXPECT_EQ(end, SimTime::seconds(5.0));
}

TEST(SimulatorTest, ScheduleIsRelativeToNow)
{
    Simulator simulator;
    SimTime inner_fired;
    simulator.schedule(SimTime::seconds(10.0), [&] {
        simulator.schedule(SimTime::seconds(5.0),
                           [&] { inner_fired = simulator.now(); });
    });
    simulator.run();
    EXPECT_EQ(inner_fired, SimTime::seconds(15.0));
}

TEST(SimulatorTest, ScheduleAtUsesAbsoluteTime)
{
    Simulator simulator;
    SimTime fired;
    simulator.scheduleAt(SimTime::minutes(2.0),
                         [&] { fired = simulator.now(); });
    simulator.run();
    EXPECT_EQ(fired, SimTime::minutes(2.0));
}

TEST(SimulatorTest, ZeroDelayFiresAtCurrentTime)
{
    Simulator simulator;
    std::vector<int> order;
    simulator.schedule(SimTime::seconds(1.0), [&] {
        order.push_back(1);
        simulator.schedule(SimTime(), [&] { order.push_back(2); });
    });
    simulator.schedule(SimTime::seconds(2.0), [&] { order.push_back(3); });
    simulator.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndResumes)
{
    Simulator simulator;
    std::vector<double> fired;
    for (double s : {1.0, 2.0, 3.0, 4.0}) {
        simulator.schedule(SimTime::seconds(s),
                           [&, s] { fired.push_back(s); });
    }

    simulator.runUntil(SimTime::seconds(2.5));
    EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(simulator.now(), SimTime::seconds(2.5));
    EXPECT_EQ(simulator.pendingCount(), 2u);

    simulator.runUntil(SimTime::seconds(10.0));
    EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
    EXPECT_EQ(simulator.now(), SimTime::seconds(10.0));
}

TEST(SimulatorTest, RunUntilAdvancesClockWithNoEvents)
{
    Simulator simulator;
    simulator.runUntil(SimTime::hours(1.0));
    EXPECT_EQ(simulator.now(), SimTime::hours(1.0));
}

TEST(SimulatorTest, EventAtHorizonIsIncluded)
{
    Simulator simulator;
    bool fired = false;
    simulator.schedule(SimTime::seconds(2.0), [&] { fired = true; });
    simulator.runUntil(SimTime::seconds(2.0));
    EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RequestStopHaltsTheLoop)
{
    Simulator simulator;
    int count = 0;
    simulator.schedule(SimTime::seconds(1.0), [&] {
        ++count;
        simulator.requestStop();
    });
    simulator.schedule(SimTime::seconds(2.0), [&] { ++count; });
    simulator.run();
    EXPECT_EQ(count, 1);
    EXPECT_EQ(simulator.pendingCount(), 1u);

    simulator.run(); // resume
    EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, CancelPreventsDispatch)
{
    Simulator simulator;
    bool fired = false;
    const EventId id =
        simulator.schedule(SimTime::seconds(1.0), [&] { fired = true; });
    EXPECT_TRUE(simulator.cancel(id));
    simulator.run();
    EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CountsDispatchedEvents)
{
    const std::uint64_t process_before =
        Simulator::processEventsDispatched();
    Simulator simulator;
    for (int i = 0; i < 7; ++i)
        simulator.schedule(SimTime::seconds(i), [] {});
    simulator.run();
    EXPECT_EQ(simulator.eventsProcessed(), 7u);
    // run() and runUntil() each add their own dispatches to the process
    // total when they return.
    EXPECT_EQ(Simulator::processEventsDispatched() - process_before, 7u);
    for (int i = 0; i < 3; ++i)
        simulator.schedule(SimTime::seconds(i), [] {});
    simulator.runUntil(simulator.now() + SimTime::seconds(1.5));
    EXPECT_EQ(simulator.eventsProcessed(), 9u);
    EXPECT_EQ(Simulator::processEventsDispatched() - process_before, 9u);
}

TEST(SimulatorDeathTest, NegativeDelayPanics)
{
    Simulator simulator;
    EXPECT_DEATH(simulator.schedule(SimTime() - SimTime::seconds(1.0),
                                    [] {}),
                 "negative delay");
}

TEST(SimulatorDeathTest, ScheduleAtInThePastPanics)
{
    Simulator simulator;
    simulator.schedule(SimTime::seconds(5.0), [&] {
        simulator.scheduleAt(SimTime::seconds(1.0), [] {});
    });
    EXPECT_DEATH(simulator.run(), "in the past");
}

} // namespace
} // namespace vpm::sim
