/**
 * @file Differential test of the migration engine's selective queue drain.
 *
 * The engine re-evaluates a queued request only when a change stamp of its
 * endpoints or their racks moved. This test drives it through seeded random
 * sequences of requests, completions and fleet disruptions, side by side
 * with a test-local reference engine that re-evaluates the whole queue on
 * every completion (the engine's semantics before change stamps). After
 * every completion both must have started the same migrations in the same
 * order, dropped the same number and hold the same queue.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "datacenter/migration.hpp"
#include "power/server_models.hpp"
#include "simcore/logging.hpp"
#include "simcore/random.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/demand_trace.hpp"

namespace vpm::dc {
namespace {

using Request = std::pair<VmId, HostId>;

/**
 * Full-rescan reference with the engine's FIFO semantics: every queued
 * request is revalidated on every completion. CPU tax and telemetry are
 * left out; neither feeds a decision.
 */
class ReferenceEngine
{
  public:
    ReferenceEngine(sim::Simulator &simulator, Cluster &cluster,
                    Topology *topology, const MigrationConfig &config)
        : simulator_(simulator), cluster_(cluster), topology_(topology),
          config_(config), costModel_(simulator, cluster, config)
    {
        costModel_.setTopology(topology);
    }

    bool
    request(VmId vm_id, HostId dest)
    {
        if (involved_.contains(vm_id) || !valid(vm_id, dest))
            return false;
        involved_.emplace(vm_id, dest);
        if (canStart(vm_id, dest))
            start(vm_id, dest);
        else
            queue_.emplace_back(vm_id, dest);
        return true;
    }

    bool involved(VmId vm) const { return involved_.contains(vm); }

    std::vector<Request>
    queued() const
    {
        return {queue_.begin(), queue_.end()};
    }

    /** (VM, destination) of every start, in order. */
    std::vector<Request> starts;
    std::uint64_t dropped = 0;
    std::function<void()> onComplete;

  private:
    bool
    valid(VmId vm_id, HostId dest) const
    {
        const Vm &vm = cluster_.vm(vm_id);
        if (!vm.placed() || vm.host() == dest || !cluster_.host(dest).isOn())
            return false;
        const Host &dest_ref = cluster_.host(dest);
        double departing_mb = 0.0;
        for (const Vm *resident : dest_ref.vms()) {
            const auto it = involved_.find(resident->id());
            if (it != involved_.end() && it->second != dest)
                departing_mb += resident->memoryMb();
        }
        return dest_ref.committedMemoryMb() +
                   dest_ref.inboundReservedMemoryMb() - departing_mb +
                   vm.memoryMb() <=
               dest_ref.memoryCapacityMb() + 1e-6;
    }

    bool
    canStart(VmId vm_id, HostId dest) const
    {
        const Vm &vm = cluster_.vm(vm_id);
        const HostId source = vm.host();
        if (cluster_.host(source).activeMigrations() >=
                config_.maxConcurrentPerHost ||
            cluster_.host(dest).activeMigrations() >=
                config_.maxConcurrentPerHost)
            return false;
        if (topology_ && !topology_->uplinkSlotsFree(source, dest))
            return false;
        return cluster_.memoryFits(vm, cluster_.host(dest));
    }

    void
    start(VmId vm_id, HostId dest)
    {
        Vm &vm = cluster_.vm(vm_id);
        const HostId source = vm.host();
        vm.setMigrating(true);
        cluster_.host(source).adjustActiveMigrations(1);
        cluster_.host(dest).adjustActiveMigrations(1);
        cluster_.host(dest).adjustInboundReservedMemoryMb(vm.memoryMb());
        if (topology_)
            topology_->acquireUplink(source, dest);
        starts.emplace_back(vm_id, dest);
        simulator_.schedule(
            costModel_.expectedDuration(vm, source, dest),
            [this, vm_id, source, dest] { complete(vm_id, source, dest); },
            "migration.complete");
    }

    void
    complete(VmId vm_id, HostId source, HostId dest)
    {
        Vm &vm = cluster_.vm(vm_id);
        Host &src_ref = cluster_.host(source);
        Host &dest_ref = cluster_.host(dest);
        src_ref.adjustActiveMigrations(-1);
        dest_ref.adjustActiveMigrations(-1);
        dest_ref.adjustInboundReservedMemoryMb(-vm.memoryMb());
        if (topology_)
            topology_->releaseUplink(source, dest);
        vm.setMigrating(false);
        involved_.erase(vm_id);
        if (src_ref.isOn() && dest_ref.isOn()) {
            cluster_.moveVm(vm_id, dest);
            if (onComplete)
                onComplete();
        }
        drain();
    }

    void
    drain()
    {
        std::deque<Request> waiting;
        while (!queue_.empty()) {
            const auto [vm_id, dest] = queue_.front();
            queue_.pop_front();
            if (!valid(vm_id, dest)) {
                involved_.erase(vm_id);
                ++dropped;
            } else if (canStart(vm_id, dest)) {
                start(vm_id, dest);
            } else {
                waiting.emplace_back(vm_id, dest);
            }
        }
        queue_ = std::move(waiting);
    }

    sim::Simulator &simulator_;
    Cluster &cluster_;
    Topology *topology_;
    MigrationConfig config_;
    MigrationEngine costModel_; ///< expectedDuration() only
    std::deque<Request> queue_;
    std::map<VmId, HostId> involved_;
};

/** One fleet shape plus the mix of operations applied to it. */
struct DrainCase
{
    const char *name;
    int hosts;
    int vmsPerHost;
    int emptyHosts;        ///< trailing hosts that start empty
    double hostMemoryMb;
    double vmMemoryLoMb;
    double vmMemoryHiMb;
    int maxConcurrentPerHost;
    int hostsPerRack;      ///< 0 = flat network
    /** Per-operation probabilities; the rest is a migration request. */
    double pSleep;
    double pWake;
    double pCrash;
    double pUnplaceQueued;
    double pInstantMove;
};

/** A simulator, a cluster and (optionally) a topology. */
struct World
{
    explicit World(const DrainCase &c) : cluster(simulator)
    {
        const power::HostPowerSpec spec = power::enterpriseBlade2013();
        HostConfig host_cfg;
        host_cfg.memoryCapacityMb = c.hostMemoryMb;
        for (int h = 0; h < c.hosts; ++h)
            cluster.addHost(host_cfg, spec);
        if (c.hostsPerRack > 0) {
            TopologyConfig topo_cfg;
            topo_cfg.hostsPerRack = c.hostsPerRack;
            topo_cfg.uplinkMigrationSlotsPerRack = 1;
            topology = std::make_unique<Topology>(c.hosts, topo_cfg);
        }
    }

    sim::Simulator simulator;
    Cluster cluster;
    std::unique_ptr<Topology> topology;
};

/** Identical VM populations in both worlds, from one seeded stream. */
void
populate(const DrainCase &c, std::uint64_t seed, World &a, World &b)
{
    sim::Rng rng(seed ^ 0x5eedull);
    const int filled = c.hosts - c.emptyHosts;
    for (int h = 0; h < filled; ++h) {
        for (int k = 0; k < c.vmsPerHost; ++k) {
            workload::VmWorkloadSpec spec;
            spec.cpuMhz = 2000.0;
            spec.memoryMb = rng.uniform(c.vmMemoryLoMb, c.vmMemoryHiMb);
            spec.trace = std::make_shared<workload::ConstantTrace>(0.5);
            for (World *w : {&a, &b}) {
                spec.name = "vm" + std::to_string(w->cluster.vmCount());
                Vm &vm = w->cluster.addVm(spec);
                w->cluster.placeVm(vm.id(), h);
            }
        }
    }
}

/** Migration starts the engine journaled since the last call. */
std::vector<Request>
journaledStarts()
{
    telemetry::EventJournal &journal = telemetry::global().journal();
    std::vector<Request> out;
    for (const telemetry::JournalEvent &ev : journal.sortedEvents()) {
        if (ev.kind == telemetry::EventKind::MigrationStart)
            out.emplace_back(ev.track, static_cast<HostId>(ev.b));
    }
    journal.clear();
    return out;
}

class MigrationDrainDiffTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        savedLevel_ = sim::logLevel();
        sim::setLogLevel(sim::LogLevel::Silent);
        telemetry::TelemetryConfig config;
        config.enabled = true;
        config.journalCapacity = 1 << 16;
        telemetry::global().configure(config);
    }

    void
    TearDown() override
    {
        telemetry::TelemetryConfig config;
        config.enabled = false;
        telemetry::global().configure(config);
        sim::setLogLevel(savedLevel_);
    }

    /** Drive one seeded sequence; @return the engine's (started, dropped)
     *  totals so the caller can check the case did real work. */
    std::pair<std::uint64_t, std::uint64_t> runSequence(const DrainCase &c,
                                                        std::uint64_t seed);

  private:
    sim::LogLevel savedLevel_ = sim::LogLevel::Warn;
};

std::pair<std::uint64_t, std::uint64_t>
MigrationDrainDiffTest::runSequence(const DrainCase &c, std::uint64_t seed)
{
    World a(c);
    World b(c);
    populate(c, seed, a, b);

    MigrationConfig config;
    config.maxConcurrentPerHost = c.maxConcurrentPerHost;
    MigrationEngine engine(a.simulator, a.cluster, config);
    engine.setTopology(a.topology.get());
    ReferenceEngine ref(b.simulator, b.cluster, b.topology.get(), config);
    engine.setOnComplete(
        [&](VmId, HostId, HostId) { a.simulator.requestStop(); });
    ref.onComplete = [&] { b.simulator.requestStop(); };
    journaledStarts(); // discard anything an earlier test left

    sim::Rng rng(seed);
    const auto pick = [&](const std::vector<int> &from) {
        return from[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(from.size()) - 1))];
    };
    const auto hostsWhere = [&](auto pred) {
        std::vector<int> out;
        for (const auto &host : a.cluster.hosts())
            if (pred(*host))
                out.push_back(host->id());
        return out;
    };
    const auto both = [&](auto op) {
        op(a);
        op(b);
    };

    std::size_t ref_starts_seen = 0;
    for (int step = 0; step < 250; ++step) {
        SCOPED_TRACE(testing::Message() << c.name << " seed " << seed
                                        << " step " << step);
        const int ops = static_cast<int>(rng.uniformInt(1, 4));
        for (int k = 0; k < ops; ++k) {
            double r = rng.uniform01();
            if ((r -= c.pSleep) < 0.0) {
                const auto idle = hostsWhere([](const Host &h) {
                    return h.isOn() && h.empty() &&
                           h.activeMigrations() == 0;
                });
                if (!idle.empty()) {
                    const HostId h = pick(idle);
                    both([&](World &w) {
                        w.cluster.requestHostSleep(h, "S3");
                    });
                }
            } else if ((r -= c.pWake) < 0.0) {
                const auto asleep = hostsWhere([](const Host &h) {
                    return h.powerFsm().phase() == power::PowerPhase::Asleep;
                });
                if (!asleep.empty()) {
                    const HostId h = pick(asleep);
                    both([&](World &w) { w.cluster.requestHostWake(h); });
                }
            } else if ((r -= c.pCrash) < 0.0) {
                const auto on =
                    hostsWhere([](const Host &h) { return h.isOn(); });
                if (!on.empty()) {
                    const HostId h = pick(on);
                    both([&](World &w) {
                        w.cluster.host(h).powerFsm().forceOff("S5");
                    });
                }
            } else if ((r -= c.pUnplaceQueued) < 0.0) {
                const auto queued = engine.queuedRequests();
                if (!queued.empty()) {
                    const VmId vm = queued[static_cast<std::size_t>(
                        rng.uniformInt(0, static_cast<std::int64_t>(
                                              queued.size()) - 1))].first;
                    if (a.cluster.vm(vm).placed()) // not already retired
                        both([&](World &w) { w.cluster.retireVm(vm); });
                }
            } else if ((r -= c.pInstantMove) < 0.0) {
                // An out-of-band move (HA restart): the cluster moves a VM
                // no migration involves, without the engine noticing.
                const VmId vm = static_cast<VmId>(rng.uniformInt(
                    0, static_cast<std::int64_t>(a.cluster.vmCount()) - 1));
                const Vm &vm_ref = a.cluster.vm(vm);
                if (!vm_ref.placed() || engine.involved(vm))
                    continue;
                const auto homes = hostsWhere([&](const Host &h) {
                    return h.isOn() && h.id() != vm_ref.host() &&
                           a.cluster.memoryFits(vm_ref, h);
                });
                if (!homes.empty()) {
                    const HostId h = pick(homes);
                    both([&](World &w) { w.cluster.moveVm(vm, h); });
                }
            } else {
                const VmId vm = static_cast<VmId>(rng.uniformInt(
                    0, static_cast<std::int64_t>(a.cluster.vmCount()) - 1));
                const HostId dest = static_cast<HostId>(
                    rng.uniformInt(0, c.hosts - 1));
                EXPECT_EQ(engine.request(vm, dest), ref.request(vm, dest));
            }
        }

        // Run both worlds to their next completion (or until idle).
        a.simulator.run();
        b.simulator.run();
        EXPECT_EQ(a.simulator.now(), b.simulator.now());

        const std::vector<Request> ref_starts(
            ref.starts.begin() +
                static_cast<std::ptrdiff_t>(ref_starts_seen),
            ref.starts.end());
        ref_starts_seen = ref.starts.size();
        EXPECT_EQ(journaledStarts(), ref_starts);
        EXPECT_EQ(engine.startedCount(), ref.starts.size());
        EXPECT_EQ(engine.droppedCount(), ref.dropped);
        EXPECT_EQ(engine.queuedRequests(), ref.queued());
        for (std::size_t v = 0; v < a.cluster.vmCount(); ++v) {
            const auto id = static_cast<VmId>(v);
            EXPECT_EQ(a.cluster.vm(id).host(), b.cluster.vm(id).host());
            EXPECT_EQ(engine.involved(id), ref.involved(id));
        }
        if (HasFailure())
            break; // the first divergence is the informative one
    }
    return {engine.startedCount(), engine.droppedCount()};
}

constexpr int kSeeds = 12;

TEST_F(MigrationDrainDiffTest, TopologyUplinks)
{
    // Cross-rack moves compete for one uplink slot per rack, so requests
    // wait on racks other than their endpoints' hosts.
    const DrainCase c{"uplinks", 12, 3, 0, 131072.0, 2048.0, 8192.0, 2, 3,
                      0.0, 0.0, 0.0, 0.0, 0.0};
    std::uint64_t started = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds && !HasFailure(); ++seed)
        started += runSequence(c, seed).first;
    EXPECT_GT(started, 200u);
}

TEST_F(MigrationDrainDiffTest, MemoryPressureDependentMoves)
{
    // Tight hosts: requests are admitted on memory booked to depart and
    // start only once it has, so drops and dependent chains are common.
    // Out-of-band moves change residents behind the engine's back.
    const DrainCase c{"memory", 8, 3, 0, 20480.0, 3000.0, 6000.0, 1, 0,
                      0.0, 0.0, 0.0, 0.0, 0.15};
    std::uint64_t started = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds && !HasFailure(); ++seed)
        started += runSequence(c, seed).first;
    EXPECT_GT(started, 200u);
}

TEST_F(MigrationDrainDiffTest, SleepCrashAndUnplaceWhileQueued)
{
    // Destinations go to sleep or crash under queued requests, in-flight
    // copies abort, hosts wake again, and queued VMs are retired.
    const DrainCase c{"disrupt", 10, 3, 3, 20480.0, 3000.0, 6000.0, 1, 0,
                      0.10, 0.08, 0.03, 0.05, 0.05};
    std::uint64_t started = 0;
    std::uint64_t dropped = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds && !HasFailure(); ++seed) {
        const auto [s, d] = runSequence(c, seed);
        started += s;
        dropped += d;
    }
    EXPECT_GT(started, 100u);
    EXPECT_GT(dropped, 10u);
}

} // namespace
} // namespace vpm::dc
