/**
 * @file
 * IdleGovernor: the fleet's periodic per-host idle decision (SleepScale's
 * per-host sleep decision), batched into one event per stagger cohort.
 */

#ifndef VPM_DATACENTER_IDLE_GOVERNOR_HPP
#define VPM_DATACENTER_IDLE_GOVERNOR_HPP

#include <cstddef>
#include <vector>

#include "datacenter/cluster.hpp"
#include "simcore/simulator.hpp"

namespace vpm::dc {

/**
 * Per host and period: busy = min(cores, ceil(utilization * cores)); if
 * the idle hierarchy would change, report busy and request full descent
 * (the hierarchy clamps and gates).
 *
 * Host h of n starts at offset floor(h * spread / n) s, spread = max(1,
 * period s). Hosts sharing an offset form a contiguous cohort, swept by
 * one self-rescheduling "idle-governor" event in host-id order: the order
 * one event per host would run them in (DESIGN.md, "Cohort idle
 * governor"), so only event counts and queue sequence numbers differ.
 * The simulator and cluster must outlive the governor, and the governor
 * its pending events.
 */
class IdleGovernor
{
  public:
    /** @param period Tick period per host; must be > 0. */
    IdleGovernor(sim::Simulator &simulator, Cluster &cluster,
                 sim::SimTime period);

    IdleGovernor(const IdleGovernor &) = delete;
    IdleGovernor &operator=(const IdleGovernor &) = delete;

    /** Split the cluster's current hosts into cohorts and schedule each
     *  cohort's first sweep at its stagger offset from now. Call once. */
    void start();

    /** Number of cohorts (events per period) after start(). */
    std::size_t cohortCount() const
    {
        return cohortStart_.empty() ? 0 : cohortStart_.size() - 1;
    }

  private:
    /** Apply the governor rule to cohort @p c's hosts, then reschedule. */
    void sweep(std::size_t c);

    sim::Simulator &simulator_;
    Cluster &cluster_;
    sim::SimTime period_;

    /** Cohort c covers hosts [cohortStart_[c], cohortStart_[c + 1]). */
    std::vector<std::size_t> cohortStart_;
};

} // namespace vpm::dc

#endif // VPM_DATACENTER_IDLE_GOVERNOR_HPP
