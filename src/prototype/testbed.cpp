#include "prototype/testbed.hpp"

#include <optional>
#include <utility>

#include "power/breakeven.hpp"
#include "power/energy_meter.hpp"
#include "power/power_state_machine.hpp"
#include "simcore/logging.hpp"
#include "simcore/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::proto {

using power::PowerPhase;
using sim::SimTime;

Testbed::Testbed(power::HostPowerSpec spec) : spec_(std::move(spec)) {}

CycleTrace
Testbed::measureSleepCycle(const std::string &state_name,
                           SimTime idle_before, SimTime dwell,
                           SimTime idle_after,
                           SimTime sample_interval) const
{
    if (sample_interval <= SimTime())
        sim::fatal("measureSleepCycle: sample interval must be positive");
    const power::SleepStateSpec *state = spec_.findSleepState(state_name);
    if (!state)
        sim::fatal("measureSleepCycle: model '%s' has no state '%s'",
                   spec_.model().c_str(), state_name.c_str());

    sim::Simulator simulator;
    power::PowerStateMachine fsm(simulator, spec_);
    // Each measured cycle gets its own synthetic journal track so traces
    // of the characterization benches separate per-state timelines.
    fsm.setTelemetryTrack(
        telemetry::global().journal().allocateTrack(
            telemetry::TrackDomain::Host, "testbed." + state_name),
        "testbed." + state_name);
    power::EnergyMeter meter(simulator.now(), fsm.powerWatts(0.0));
    fsm.addObserver([&](PowerPhase, PowerPhase) {
        meter.update(simulator.now(), fsm.powerWatts(0.0));
    });

    const SimTime total = idle_before + state->entryLatency + dwell +
                          state->exitLatency + idle_after;

    simulator.scheduleAt(idle_before,
                         [&] { fsm.requestSleep(state_name); },
                         "testbed.sleep");
    simulator.scheduleAt(idle_before + state->entryLatency + dwell,
                         [&] { fsm.requestWake(); }, "testbed.wake");

    // The wattmeter samples also land in the time-series store, one
    // series per cycle (each cycle's clock starts at zero).
    telemetry::TimeSeriesStore &store = telemetry::global().timeseries();
    const std::uint32_t watts_series =
        store.enabled() ? store.seriesId("testbed." + state_name +
                                         ".power.watts")
                        : 0;

    CycleTrace trace;
    trace.duration = total;
    for (SimTime t; t <= total; t += sample_interval) {
        simulator.scheduleAt(t, [&, t] {
            const double watts = fsm.powerWatts(0.0);
            trace.samples.push_back(
                {t, watts, power::toString(fsm.phase())});
            store.record(watts_series, t.micros(), watts);
        }, "testbed.sample");
    }

    simulator.runUntil(total);
    meter.finish(total);
    trace.totalJoules = meter.joules();
    return trace;
}

StateCharacterization
Testbed::characterize(const std::string &state_name) const
{
    const power::SleepStateSpec *state = spec_.findSleepState(state_name);
    if (!state)
        sim::fatal("characterize: model '%s' has no state '%s'",
                   spec_.model().c_str(), state_name.c_str());

    sim::Simulator simulator;
    power::PowerStateMachine fsm(simulator, spec_);
    power::EnergyMeter meter(simulator.now(), fsm.powerWatts(0.0));

    // Measure latencies and energies off the observed phase edges rather
    // than trusting the spec: this is the "wattmeter view" the paper's
    // tables report, and it cross-checks the FSM implementation.
    std::optional<SimTime> entry_start, asleep_at, exit_start, on_at;
    double entry_start_j = 0.0, asleep_j = 0.0, exit_start_j = 0.0,
           on_j = 0.0;
    fsm.addObserver([&](PowerPhase, PowerPhase to) {
        meter.update(simulator.now(), fsm.powerWatts(0.0));
        switch (to) {
          case PowerPhase::Entering:
            entry_start = simulator.now();
            entry_start_j = meter.joules();
            break;
          case PowerPhase::Asleep:
            asleep_at = simulator.now();
            asleep_j = meter.joules();
            break;
          case PowerPhase::Exiting:
            exit_start = simulator.now();
            exit_start_j = meter.joules();
            break;
          case PowerPhase::On:
            on_at = simulator.now();
            on_j = meter.joules();
            break;
        }
    });

    const SimTime dwell = SimTime::minutes(10.0);
    simulator.schedule(SimTime(), [&] { fsm.requestSleep(state_name); },
                       "char.sleep");
    simulator.scheduleAt(state->entryLatency + dwell,
                         [&] { fsm.requestWake(); }, "char.wake");
    simulator.run();

    if (!entry_start || !asleep_at || !exit_start || !on_at)
        sim::panic("characterize: FSM did not complete a full cycle");

    StateCharacterization result;
    result.name = state->name;
    result.sleepWatts = state->sleepPowerWatts;
    result.entrySeconds = (*asleep_at - *entry_start).toSeconds();
    result.exitSeconds = (*on_at - *exit_start).toSeconds();
    result.entryJoules = asleep_j - entry_start_j;
    result.exitJoules = on_j - exit_start_j;

    const std::optional<double> break_even =
        power::breakEvenSeconds(spec_, *state);
    result.breakEvenSeconds = break_even.value_or(-1.0);
    return result;
}

std::vector<StateCharacterization>
Testbed::characterizeAll() const
{
    std::vector<StateCharacterization> results;
    for (const power::SleepStateSpec &state : spec_.sleepStates())
        results.push_back(characterize(state.name));
    return results;
}

std::vector<std::pair<double, double>>
Testbed::activePower(const std::vector<double> &utilizations) const
{
    std::vector<std::pair<double, double>> curve;
    curve.reserve(utilizations.size());
    for (double u : utilizations)
        curve.emplace_back(u, spec_.activePowerWatts(u));
    return curve;
}

DutyCycleResult
Testbed::dutyCycle(const std::string &state_name, SimTime busy, SimTime gap,
                   double busy_utilization) const
{
    const power::SleepStateSpec *state = spec_.findSleepState(state_name);
    if (!state)
        sim::fatal("dutyCycle: model '%s' has no state '%s'",
                   spec_.model().c_str(), state_name.c_str());
    if (busy <= SimTime() || gap <= SimTime())
        sim::fatal("dutyCycle: busy and gap must be positive");

    DutyCycleResult result;
    result.busyEnergyJoules =
        spec_.activePowerWatts(busy_utilization) * busy.toSeconds();
    result.idleEnergyJoules =
        power::idleEnergyJoules(spec_, gap.toSeconds());

    const std::optional<double> sleep_energy =
        power::sleepEnergyJoules(*state, gap.toSeconds());
    result.feasible = sleep_energy.has_value();
    if (!result.feasible) {
        result.sleepEnergyJoules = result.idleEnergyJoules;
        result.savedFraction = 0.0;
        result.delaySeconds = 0.0;
        return result;
    }

    // Reactive wake: exercise the FSM through one cycle and confirm the
    // delay equals the exit latency observed, not just the spec value.
    sim::Simulator simulator;
    power::PowerStateMachine fsm(simulator, spec_);
    simulator.schedule(busy, [&] { fsm.requestSleep(state_name); },
                       "duty.sleep");
    SimTime work_arrived = busy + gap;
    SimTime work_started;
    fsm.addObserver([&](PowerPhase, PowerPhase to) {
        if (to == PowerPhase::On)
            work_started = simulator.now();
    });
    simulator.scheduleAt(work_arrived, [&] { fsm.requestWake(); },
                         "duty.wake");
    simulator.run();

    result.sleepEnergyJoules = *sleep_energy;
    const double idle_cycle =
        result.busyEnergyJoules + result.idleEnergyJoules;
    const double sleep_cycle =
        result.busyEnergyJoules + result.sleepEnergyJoules;
    result.savedFraction = 1.0 - sleep_cycle / idle_cycle;
    result.delaySeconds = (work_started - work_arrived).toSeconds();
    return result;
}

} // namespace vpm::proto
