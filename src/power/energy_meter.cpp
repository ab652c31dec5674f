#include "power/energy_meter.hpp"

#include "simcore/logging.hpp"

namespace vpm::power {

EnergyMeter::EnergyMeter(sim::SimTime start, double initial_watts)
    : startTime_(start), lastTime_(start), heldWatts_(initial_watts)
{
    if (initial_watts < 0.0)
        sim::panic("EnergyMeter: negative initial power %g W", initial_watts);
}

void
EnergyMeter::update(sim::SimTime t, double watts)
{
    if (watts < 0.0)
        sim::panic("EnergyMeter::update: negative power %g W", watts);

    if (t < lastTime_) {
        // Clamp the delta at zero rather than integrating a negative
        // interval (which would silently subtract joules). Warn once per
        // meter: a backwards update is a caller bug worth flagging, but
        // not worth aborting a long run over.
        if (!warnedBackwards_) {
            warnedBackwards_ = true;
            sim::warn("EnergyMeter::update: time moved backwards "
                      "(%lld us < %lld us); clamping interval to zero",
                      static_cast<long long>(t.micros()),
                      static_cast<long long>(lastTime_.micros()));
        }
        // Count every clamp (the warning fires once): the cluster's
        // telemetry sample turns the count into a series a watchdog
        // absence/rate rule can trip on.
        ++backwardsClamps_;
        heldWatts_ = watts;
        return;
    }

    joules_ += heldWatts_ * (t - lastTime_).toSeconds();
    lastTime_ = t;
    heldWatts_ = watts;
}

void
EnergyMeter::addEnergyJoules(double joules)
{
    if (joules < 0.0) {
        if (!warnedNegativeImpulse_) {
            warnedNegativeImpulse_ = true;
            sim::warn("EnergyMeter::addEnergyJoules: negative impulse "
                      "%g J ignored", joules);
        }
        return;
    }
    joules_ += joules;
}

void
EnergyMeter::finish(sim::SimTime t)
{
    update(t, heldWatts_);
}

double
EnergyMeter::averageWatts() const
{
    const double secs = elapsed().toSeconds();
    if (secs <= 0.0)
        return 0.0;
    return joules_ / secs;
}

} // namespace vpm::power
