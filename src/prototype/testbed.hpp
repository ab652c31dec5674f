/**
 * @file
 * Testbed emulation: the stand-in for the paper's instrumented prototype.
 *
 * The paper's first contribution is a measured characterization of
 * low-latency power states on real servers — wattmeter timelines, entry and
 * exit latencies, transition energies. We cannot run their blades, so this
 * harness plays the measurement rig's role against the same
 * PowerStateMachine the scale-out simulator uses: it scripts transitions,
 * samples power like a 1 Hz wattmeter, and extracts the characterization
 * table. Because characterization and simulation share one state machine,
 * the two halves of the reproduction are mutually consistent, exactly as
 * prototype and simulator are in the paper.
 */

#ifndef VPM_PROTOTYPE_TESTBED_HPP
#define VPM_PROTOTYPE_TESTBED_HPP

#include <string>
#include <vector>

#include "power/power_state.hpp"
#include "simcore/sim_time.hpp"

namespace vpm::proto {

/** One wattmeter sample. */
struct PowerSample
{
    sim::SimTime time;
    double watts;
    std::string phase; ///< FSM phase at the sample instant
};

/** Measured characterization of one sleep state (the rows of T1). */
struct StateCharacterization
{
    std::string name;
    double sleepWatts = 0.0;
    double entrySeconds = 0.0;
    double exitSeconds = 0.0;
    double entryJoules = 0.0;
    double exitJoules = 0.0;

    /** Break-even idle interval vs. staying in S0-idle, in seconds;
     *  negative if the state can never win. */
    double breakEvenSeconds = -1.0;
};

/** Power timeline of one scripted suspend/resume cycle (F1). */
struct CycleTrace
{
    std::vector<PowerSample> samples;
    double totalJoules = 0.0;
    sim::SimTime duration;
};

/** Energy/performance outcome of duty-cycled sleeping (F3). */
struct DutyCycleResult
{
    double busyEnergyJoules = 0.0;  ///< active period (policy-independent)
    double idleEnergyJoules = 0.0;  ///< gap spent in S0-idle
    double sleepEnergyJoules = 0.0; ///< gap spent in the sleep state
    double savedFraction = 0.0;     ///< whole-cycle energy saved by sleeping
    double delaySeconds = 0.0;      ///< work delayed per cycle (reactive wake)
    bool feasible = false;          ///< gap long enough to cycle the state
};

/** Scripted measurement rig around one host power model. */
class Testbed
{
  public:
    /** @param spec Host model under test (copied). */
    explicit Testbed(power::HostPowerSpec spec);

    const power::HostPowerSpec &spec() const { return spec_; }

    /**
     * Drive one idle -> suspend -> dwell -> resume -> idle cycle and sample
     * power at @p sample_interval, wattmeter-style. With telemetry on, the
     * samples are also recorded as the store series
     * `testbed.<state_name>.power.watts`.
     *
     * @param state_name Sleep state to cycle.
     * @param idle_before S0-idle lead-in.
     * @param dwell Time to stay asleep after entry completes.
     * @param idle_after S0-idle tail after resume completes.
     */
    CycleTrace measureSleepCycle(
        const std::string &state_name, sim::SimTime idle_before,
        sim::SimTime dwell, sim::SimTime idle_after,
        sim::SimTime sample_interval = sim::SimTime::seconds(1.0)) const;

    /**
     * Measure one sleep state by driving the FSM through a full cycle and
     * reading latencies and energies off the observed phase edges.
     */
    StateCharacterization characterize(const std::string &state_name) const;

    /** Characterize every state the platform supports. */
    std::vector<StateCharacterization> characterizeAll() const;

    /** Active (S0) power at each utilization in @p utilizations. */
    std::vector<std::pair<double, double>>
    activePower(const std::vector<double> &utilizations) const;

    /**
     * Duty-cycle experiment: a periodic workload computes for @p busy at
     * @p busy_utilization, then idles for @p gap. Compare spending the gap
     * in S0-idle versus in @p state_name with a *reactive* wake (the wake
     * is requested when work arrives, so each cycle delays work by the
     * exit latency).
     */
    DutyCycleResult dutyCycle(const std::string &state_name,
                              sim::SimTime busy, sim::SimTime gap,
                              double busy_utilization) const;

  private:
    power::HostPowerSpec spec_;
};

} // namespace vpm::proto

#endif // VPM_PROTOTYPE_TESTBED_HPP
