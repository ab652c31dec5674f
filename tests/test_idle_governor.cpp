/**
 * @file Equivalence tests for the cohort-batched idle governor.
 *
 * The reference is the per-host schedule the cohort governor replaced:
 * one self-rescheduling event per host, staggered the same way. Both are
 * driven through whole periods on awkward fleet shapes against a live
 * DatacenterSim (whose evaluations tie with governor ticks at integer
 * seconds), and every per-host idle statistic must match exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "datacenter/datacenter_sim.hpp"
#include "datacenter/idle_governor.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::dc {
namespace {

using sim::SimTime;

/** One self-rescheduling governor event per host (the replaced design). */
class PerHostGovernor
{
  public:
    PerHostGovernor(sim::Simulator &simulator, Cluster &cluster,
                    SimTime period)
        : simulator_(simulator), cluster_(cluster), period_(period)
    {
    }

    void
    start()
    {
        const std::size_t count = cluster_.hostCount();
        const auto spread =
            static_cast<std::size_t>(std::max(1.0, period_.toSeconds()));
        for (std::size_t h = 0; h < count; ++h) {
            const auto offset = SimTime::seconds(
                static_cast<double>(h * spread / count));
            const auto id = static_cast<HostId>(h);
            simulator_.schedule(offset, [this, id] { tick(id); },
                                "idle-governor");
        }
    }

  private:
    void
    tick(HostId h)
    {
        Host &host = cluster_.host(h);
        if (power::IdleHierarchy *hier = host.idleHierarchy();
            hier != nullptr && hier->active()) {
            const int cores = hier->spec().coreCount;
            const int busy = std::min(
                cores, static_cast<int>(std::ceil(host.utilization() *
                                                  cores)));
            const int core_depth =
                static_cast<int>(hier->spec().coreStates.size());
            const int pkg_depth =
                static_cast<int>(hier->spec().packageStates.size());
            if (hier->wouldChange(busy, core_depth, pkg_depth)) {
                hier->setBusyCores(busy);
                hier->requestDepth(core_depth, pkg_depth);
            }
        }
        simulator_.schedule(period_, [this, h] { tick(h); },
                            "idle-governor");
    }

    sim::Simulator &simulator_;
    Cluster &cluster_;
    SimTime period_;
};

struct HostIdleStats
{
    std::vector<double> coreResidency;
    std::vector<double> packageResidency;
    std::uint64_t transitions = 0;
    double transitionJoules = 0.0;
};

struct RunOutcome
{
    std::vector<HostIdleStats> hosts;
    double energyKwh = 0.0;
    std::uint64_t events = 0;
    std::size_t cohorts = 0;
};

/** A fleet whose demand moves often enough to drive idle transitions:
 *  three VMs per loaded host, each on its own step trace; the last fifth
 *  of the hosts stays empty and host 1 has no idle hierarchy. */
struct Fleet
{
    explicit Fleet(int host_count)
        : cluster(simulator), engine(simulator, cluster)
    {
        const power::HostPowerSpec power_spec =
            power::enterpriseBlade2013();
        for (int h = 0; h < host_count; ++h)
            cluster.addHost(HostConfig{}, power_spec);
        for (int h = 0; h < host_count; ++h)
            if (h != 1)
                cluster.host(h).attachIdleHierarchy(
                    std::make_unique<power::IdleHierarchy>(
                        simulator, power::modernIdleHierarchy()));

        const int loaded = std::max(1, host_count * 4 / 5);
        std::uint64_t lcg = 12345;
        const auto next = [&lcg] {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            return static_cast<double>(lcg >> 11) * 0x1.0p-53;
        };
        for (int v = 0; v < loaded * 3; ++v) {
            std::vector<workload::StepTrace::Step> steps;
            for (int k = 0; k < 12; ++k)
                steps.push_back({SimTime::seconds(v * 7.0 + k * 173.0),
                                 next()});
            workload::VmWorkloadSpec spec;
            spec.name = "vm" + std::to_string(v);
            spec.cpuMhz = 8000.0;
            spec.memoryMb = 1024.0;
            spec.trace = std::make_shared<workload::StepTrace>(steps);
            const Vm &vm = cluster.addVm(std::move(spec));
            cluster.placeVm(vm.id(), static_cast<HostId>(v % loaded));
        }
        DatacenterConfig config;
        config.evaluationInterval = SimTime::seconds(20.0);
        dcsim = std::make_unique<DatacenterSim>(simulator, cluster, engine,
                                                config);
    }

    sim::Simulator simulator;
    Cluster cluster;
    MigrationEngine engine;
    std::unique_ptr<DatacenterSim> dcsim;
};

/** Run @p periods whole governor periods (the horizon stops 1 µs short
 *  of the next period, so every stagger offset fires exactly that many
 *  times) and collect per-host idle statistics. */
template <typename Governor>
RunOutcome
runFleet(int host_count, SimTime period, int periods)
{
    Fleet fleet(host_count);
    Governor governor(fleet.simulator, fleet.cluster, period);
    governor.start();
    const SimTime horizon = SimTime::micros(period.micros() * periods - 1);
    RunOutcome out;
    out.energyKwh = fleet.dcsim->runFor(horizon).energyKwh;
    out.events = fleet.simulator.eventsProcessed();
    if constexpr (std::is_same_v<Governor, IdleGovernor>)
        out.cohorts = governor.cohortCount();
    for (const auto &host_ptr : fleet.cluster.hosts()) {
        HostIdleStats stats;
        if (power::IdleHierarchy *hier = host_ptr->idleHierarchy()) {
            hier->finish(fleet.simulator.now());
            for (std::size_t d = 0; d <= hier->spec().coreStates.size();
                 ++d)
                stats.coreResidency.push_back(
                    hier->coreResidencySeconds(static_cast<int>(d)));
            for (std::size_t d = 0;
                 d <= hier->spec().packageStates.size(); ++d)
                stats.packageResidency.push_back(
                    hier->packageResidencySeconds(static_cast<int>(d)));
            stats.transitions = hier->transitions();
            stats.transitionJoules = hier->transitionEnergyJoules();
        }
        out.hosts.push_back(std::move(stats));
    }
    return out;
}

struct Shape
{
    const char *name;
    int hosts;
    double periodS;
    std::size_t cohorts;
};

void
PrintTo(const Shape &shape, std::ostream *os)
{
    *os << shape.hosts << " hosts, period " << shape.periodS << " s";
}

class IdleGovernorEquivalence : public ::testing::TestWithParam<Shape>
{
};

TEST_P(IdleGovernorEquivalence, MatchesPerHostScheduleExactly)
{
    const Shape shape = GetParam();
    constexpr int kPeriods = 40;
    const SimTime period = SimTime::seconds(shape.periodS);

    const RunOutcome ref = runFleet<PerHostGovernor>(shape.hosts, period,
                                                     kPeriods);
    const RunOutcome got = runFleet<IdleGovernor>(shape.hosts, period,
                                                  kPeriods);

    ASSERT_EQ(got.cohorts, shape.cohorts);
    ASSERT_EQ(ref.hosts.size(), got.hosts.size());
    std::uint64_t total_transitions = 0;
    for (std::size_t h = 0; h < ref.hosts.size(); ++h) {
        SCOPED_TRACE("host " + std::to_string(h));
        EXPECT_EQ(got.hosts[h].coreResidency, ref.hosts[h].coreResidency);
        EXPECT_EQ(got.hosts[h].packageResidency,
                  ref.hosts[h].packageResidency);
        EXPECT_EQ(got.hosts[h].transitions, ref.hosts[h].transitions);
        EXPECT_EQ(got.hosts[h].transitionJoules,
                  ref.hosts[h].transitionJoules);
        total_transitions += ref.hosts[h].transitions;
    }
    EXPECT_EQ(got.energyKwh, ref.energyKwh);
    // The fleet really moved: a vacuous match proves nothing.
    EXPECT_GT(total_transitions, static_cast<std::uint64_t>(shape.hosts));

    // Everything but the governor is the same event stream, so the
    // saving is exactly (hosts - cohorts) events per period.
    EXPECT_EQ(ref.events - got.events,
              (static_cast<std::uint64_t>(shape.hosts) - shape.cohorts) *
                  kPeriods);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IdleGovernorEquivalence,
    ::testing::Values(
        // Fewer hosts than period seconds: every host is its own cohort.
        Shape{"FewerHostsThanSeconds", 7, 30.0, 7},
        // 50 hosts over 30 offsets: cohorts of one and two hosts.
        Shape{"HostsNotDivisibleByPeriod", 50, 30.0, 30},
        // Non-integer period: offsets spread over floor(45.5) = 45 s.
        Shape{"NonIntegerPeriod", 100, 45.5, 45},
        // Sub-second period: the whole fleet is one cohort.
        Shape{"SubSecondPeriod", 12, 0.5, 1}),
    [](const ::testing::TestParamInfo<Shape> &param) {
        return std::string(param.param.name);
    });

TEST(IdleGovernorTest, DispatchesOneEventPerCohortPerPeriod)
{
    for (const Shape &shape :
         {Shape{"", 7, 30.0, 7}, Shape{"", 50, 30.0, 30},
          Shape{"", 100, 45.5, 45}, Shape{"", 12, 0.5, 1}}) {
        sim::Simulator simulator;
        Cluster cluster(simulator);
        for (int h = 0; h < shape.hosts; ++h)
            cluster.addHost(HostConfig{}, power::enterpriseBlade2013());
        const SimTime period = SimTime::seconds(shape.periodS);
        IdleGovernor governor(simulator, cluster, period);
        governor.start();
        constexpr int kPeriods = 25;
        simulator.runUntil(SimTime::micros(period.micros() * kPeriods - 1));
        EXPECT_EQ(governor.cohortCount(), shape.cohorts);
        EXPECT_EQ(simulator.eventsProcessed(), shape.cohorts * kPeriods)
            << shape.hosts << " hosts, period " << shape.periodS << " s";
    }
}

TEST(IdleGovernorTest, EmptyClusterSchedulesNothing)
{
    sim::Simulator simulator;
    Cluster cluster(simulator);
    IdleGovernor governor(simulator, cluster, SimTime::minutes(5.0));
    governor.start();
    EXPECT_EQ(governor.cohortCount(), 0u);
    EXPECT_EQ(simulator.pendingCount(), 0u);
}

} // namespace
} // namespace vpm::dc
