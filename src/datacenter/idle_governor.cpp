#include "datacenter/idle_governor.hpp"

#include <algorithm>
#include <cmath>

#include "power/idle_hierarchy.hpp"
#include "simcore/logging.hpp"

namespace vpm::dc {

IdleGovernor::IdleGovernor(sim::Simulator &simulator, Cluster &cluster,
                           sim::SimTime period)
    : simulator_(simulator), cluster_(cluster), period_(period)
{
    if (period_ <= sim::SimTime())
        sim::fatal("IdleGovernor: period must be > 0");
}

void
IdleGovernor::start()
{
    const std::size_t count = cluster_.hostCount();
    const auto spread =
        static_cast<std::size_t>(std::max(1.0, period_.toSeconds()));
    for (std::size_t h = 0; h < count; ++h) {
        const std::size_t offset = h * spread / count;
        if (h > 0 && offset == (h - 1) * spread / count)
            continue; // same cohort as host h - 1
        const std::size_t c = cohortStart_.size();
        cohortStart_.push_back(h);
        simulator_.schedule(sim::SimTime::seconds(static_cast<double>(offset)),
                            [this, c] { sweep(c); }, "idle-governor");
    }
    cohortStart_.push_back(count);
}

void
IdleGovernor::sweep(std::size_t c)
{
    for (std::size_t h = cohortStart_[c]; h < cohortStart_[c + 1]; ++h) {
        Host &host = cluster_.host(static_cast<HostId>(h));
        power::IdleHierarchy *hier = host.idleHierarchy();
        if (hier == nullptr || !hier->active())
            continue;
        const int cores = hier->spec().coreCount;
        const int busy = std::min(
            cores, static_cast<int>(std::ceil(host.utilization() * cores)));
        const int core_depth =
            static_cast<int>(hier->spec().coreStates.size());
        const int pkg_depth =
            static_cast<int>(hier->spec().packageStates.size());
        if (hier->wouldChange(busy, core_depth, pkg_depth)) {
            hier->setBusyCores(busy);
            hier->requestDepth(core_depth, pkg_depth);
        }
    }
    simulator_.schedule(period_, [this, c] { sweep(c); }, "idle-governor");
}

} // namespace vpm::dc
