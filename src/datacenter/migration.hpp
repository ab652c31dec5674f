/**
 * @file
 * Live-migration engine.
 *
 * Live migration is the mechanism every decision of the management layer is
 * executed through, and its cost model shapes the paper's overhead results:
 * a migration takes memory-size/bandwidth time (with a dirty-page retransmit
 * factor), taxes CPU on both endpoints while in flight, and each host only
 * sustains a few concurrent migrations. Requests beyond the concurrency cap
 * queue FIFO; a completion revalidates the queued requests whose endpoints
 * (or racks) changed since their last check, and starts those that fit.
 */

#ifndef VPM_DATACENTER_MIGRATION_HPP
#define VPM_DATACENTER_MIGRATION_HPP

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "datacenter/cluster.hpp"
#include "datacenter/topology.hpp"
#include "simcore/simulator.hpp"
#include "stats/summary.hpp"
#include "telemetry/trace_context.hpp"

namespace vpm::dc {

/** Cost-model knobs for live migration. */
struct MigrationConfig
{
    /** Usable migration bandwidth per stream, in MB/s (10 GbE ~ 1100). */
    double bandwidthMbPerSec = 1100.0;

    /** Fixed setup/switchover overhead per migration. */
    sim::SimTime fixedOverhead = sim::SimTime::seconds(2.0);

    /** Memory retransmit factor for pages dirtied during pre-copy. */
    double dirtyPageFactor = 1.3;

    /**
     * Additional dirty-page factor per unit of VM CPU utilization: a VM
     * running flat out re-dirties pages during pre-copy, so its copy
     * takes (dirtyPageFactor + utilizationDirtyFactor * utilization)
     * times its memory. 0 restores the size-only model.
     */
    double utilizationDirtyFactor = 0.6;

    /** Max concurrent migrations touching one host (in + out). */
    int maxConcurrentPerHost = 2;

    /** CPU overhead charged to both endpoints, as a fraction of VM size. */
    double cpuTaxFraction = 0.10;
};

/** Orchestrates live migrations over a Cluster. */
class MigrationEngine
{
  public:
    /** Fired when a migration lands, after the VM has moved. */
    using CompletionHandler =
        std::function<void(VmId vm, HostId source, HostId dest)>;

    MigrationEngine(sim::Simulator &simulator, Cluster &cluster,
                    const MigrationConfig &config = {});

    MigrationEngine(const MigrationEngine &) = delete;
    MigrationEngine &operator=(const MigrationEngine &) = delete;

    /**
     * Request a live migration of @p vm to @p dest.
     *
     * Rejected immediately (returns false, warning logged) if the VM is
     * already migrating or queued, unplaced, already on @p dest, or if
     * @p dest is not On / lacks memory headroom. Otherwise the migration
     * starts now or queues behind the per-host concurrency cap.
     */
    bool request(VmId vm, HostId dest);

    /** true if the VM is in flight or queued. */
    bool involved(VmId vm) const;

    /**
     * Destination of the VM's in-flight or queued migration.
     * @return invalidHostId if the VM is not involved in one.
     */
    HostId destinationOf(VmId vm) const;

    /**
     * Duration of migrating @p vm if it started right now, under the cost
     * model including its current activity (busy VMs re-dirty pages
     * during pre-copy and take longer). Assumes the configured flat
     * bandwidth; with a topology attached the endpoint-aware overload is
     * what start() charges.
     */
    sim::SimTime expectedDuration(const Vm &vm) const;

    /** Endpoint-aware duration (rack locality decides the bandwidth). */
    sim::SimTime expectedDuration(const Vm &vm, HostId source,
                                  HostId dest) const;

    /**
     * Attach a network topology: cross-rack migrations then ride the
     * (slower) uplink bandwidth and compete for per-rack uplink slots.
     * Pass nullptr to restore the flat network. The topology must
     * outlive the engine, and be attached while no migration is in
     * flight or queued (panic otherwise).
     */
    void setTopology(Topology *topology);

    /** @name Counters */
    ///@{
    int activeCount() const { return activeCount_; }
    std::size_t queuedCount() const { return queue_.size(); }
    std::uint64_t startedCount() const { return started_; }
    std::uint64_t completedCount() const { return completed_; }

    /** Queued requests later dropped because revalidation failed. */
    std::uint64_t droppedCount() const { return dropped_; }

    /** In-flight migrations abandoned because an endpoint lost power
     *  mid-copy (the VM stays on its source). */
    std::uint64_t abortedCount() const { return aborted_; }

    /** Completed migrations that crossed racks (0 on a flat network). */
    std::uint64_t crossRackCount() const { return crossRack_; }

    /** Summary of completed migration durations, in seconds. */
    const stats::Summary &durations() const { return durations_; }
    ///@}

    /** Queued requests in FIFO order, as (VM, destination) pairs. */
    std::vector<std::pair<VmId, HostId>> queuedRequests() const;

    /** Subscribe to migration completions (single handler). */
    void setOnComplete(CompletionHandler handler);

    const MigrationConfig &config() const { return config_; }

  private:
    struct Request
    {
        VmId vm;
        HostId dest;

        /** Causal context at request() time; a queued migration that only
         *  starts from a later completion event must still be attributed
         *  to the decision that requested it. */
        telemetry::TraceContext context;

        /** Inputs seen by the last evaluation (see stale()). */
        HostId source = invalidHostId;
        std::uint64_t sourceStamp = 0;
        std::uint64_t destStamp = 0;
        std::uint64_t sourceRackStamp = 0;
        std::uint64_t destRackStamp = 0;
    };

    /** Validation shared by request() and queue drain. */
    bool validate(const Vm &vm, HostId dest, bool is_queued_retry) const;

    /** true if both endpoints have a free migration slot. */
    bool slotsFree(HostId source, HostId dest) const;

    /**
     * Optimistic memory check: fits once every resident VM already booked
     * to leave the destination has left. Gates admission to the queue.
     */
    bool memoryFitsAfterPending(const Vm &vm, HostId dest) const;

    /**
     * Strict memory check gating migration start: resident memory plus
     * reservations of in-flight inbound migrations.
     */
    bool memoryFitsNow(const Vm &vm, HostId dest) const;

    /**
     * Record the stamps of the request's endpoints and racks: every input
     * of its revalidation bumps one of them when it changes.
     */
    void stamp(Request &req) const;

    /** true if an input of @p req changed since its last evaluation. */
    bool stale(const Request &req) const;

    /** Set (or with invalidHostId clear) the VM's migration destination,
     *  growing the per-VM columns on demand. */
    void setDestination(VmId vm, HostId dest);

    void start(VmId vm, HostId dest);
    void complete(VmId vm, HostId source, HostId dest);
    void drainQueue();

    sim::Simulator &simulator_;
    Cluster &cluster_;
    MigrationConfig config_;
    Topology *topology_ = nullptr;

    /** FIFO of waiting requests, compacted in place by drainQueue(). */
    std::vector<Request> queue_;
    /** Per VM id: destination of its in-flight or queued migration
     *  (invalidHostId = not involved) and, while in flight, its frozen
     *  duration. Grown on demand as the cluster gains VMs. */
    std::vector<HostId> destination_;
    std::vector<sim::SimTime> activeDuration_;
    int activeCount_ = 0;
    std::uint64_t started_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t aborted_ = 0;
    std::uint64_t crossRack_ = 0;
    stats::Summary durations_;
    CompletionHandler onComplete_;
};

} // namespace vpm::dc

#endif // VPM_DATACENTER_MIGRATION_HPP
