/**
 * @file
 * Step-hold energy integrator.
 *
 * Simulated power draw is piecewise constant: it only changes when demand is
 * re-evaluated or a power-state transition begins/ends. The meter therefore
 * integrates exactly (no sampling error): it holds the last reported power
 * and accumulates held_watts * dt on every update.
 */

#ifndef VPM_POWER_ENERGY_METER_HPP
#define VPM_POWER_ENERGY_METER_HPP

#include <cstdint>

#include "simcore/sim_time.hpp"

namespace vpm::power {

/**
 * Accumulates energy from a piecewise-constant power signal.
 *
 * Usage: construct at the signal's start time with its initial value, call
 * update() at every change point (and finish()/update() once at the end of
 * the measurement window), then read joules()/averageWatts().
 */
class EnergyMeter
{
  public:
    /**
     * @param start Time at which measurement begins.
     * @param initial_watts Power draw holding from the start time.
     */
    explicit EnergyMeter(sim::SimTime start = {}, double initial_watts = 0.0);

    /**
     * Report that the power changed to @p watts at time @p t.
     * Integrates the previously held power over [last update, t].
     * A @p t that precedes the previous update is a caller bug: the
     * interval is clamped to zero (no joules are added or subtracted,
     * and the meter's clock does not move backwards), the new power
     * still takes effect, a warning is logged once per meter, and
     * backwardsClamps() counts it.
     */
    void update(sim::SimTime t, double watts);

    /** Integrate the held power up to @p t without changing it. */
    void finish(sim::SimTime t);

    /**
     * Charge an energy impulse directly, in joules. Used for transition
     * energies whose duration is far below the step-hold resolution (µs
     * C-state entries/exits): the impulse adds to the accumulator without
     * touching the held power or the meter's clock, so it is
     * order-independent with respect to update()/finish(). Negative
     * impulses are a caller bug and are ignored with a one-shot warning.
     */
    void addEnergyJoules(double joules);

    /** Total accumulated energy, in joules. */
    double joules() const { return joules_; }

    /** Total accumulated energy, in watt-hours. */
    double wattHours() const { return joules_ / 3600.0; }

    /** Total accumulated energy, in kilowatt-hours. */
    double kiloWattHours() const { return wattHours() / 1000.0; }

    /** Time covered so far (from start to the last update). */
    sim::SimTime elapsed() const { return lastTime_ - startTime_; }

    /** Mean power over the covered window; 0 if the window is empty. */
    double averageWatts() const;

    /** Power currently being held (the last reported value). */
    double heldWatts() const { return heldWatts_; }

    /** Backwards updates clamped so far (see update()). */
    std::uint64_t backwardsClamps() const { return backwardsClamps_; }

  private:
    sim::SimTime startTime_;
    sim::SimTime lastTime_;
    double heldWatts_;
    double joules_ = 0.0;
    std::uint64_t backwardsClamps_ = 0;
    bool warnedBackwards_ = false;
    bool warnedNegativeImpulse_ = false;
};

} // namespace vpm::power

#endif // VPM_POWER_ENERGY_METER_HPP
