/**
 * @file
 * Placement planning: the bin-packing and load-balancing algorithms of the
 * management layer.
 *
 * Planning runs on a PlacementModel — a snapshot of hosts and VMs sized by
 * *predicted* demand — so the algorithms are pure, deterministic and unit
 * testable, decoupled from the live Cluster. The caller turns the returned
 * moves into live-migration requests.
 */

#ifndef VPM_CORE_PLACEMENT_HPP
#define VPM_CORE_PLACEMENT_HPP

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "datacenter/vm.hpp"

namespace vpm::mgmt {

using dc::HostId;
using dc::VmId;

/** A host as the planner sees it. */
struct PlannedHost
{
    HostId id = dc::invalidHostId;
    double cpuCapacityMhz = 0.0;
    double memoryCapacityMb = 0.0;

    /** false for hosts that are off, transitioning, or draining — they can
     *  neither receive VMs nor count as capacity. */
    bool usable = true;

    /** Rack assignment; planners with rack affinity prefer same-rack
     *  destinations. 0 everywhere models a flat network. */
    int rack = 0;
};

/** A VM as the planner sees it; cpuMhz is its *predicted* demand. */
struct PlannedVm
{
    VmId id = -1;
    HostId host = dc::invalidHostId;
    double cpuMhz = 0.0;
    double memoryMb = 0.0;

    /** false pins the VM (e.g. it is already migrating): its load counts
     *  but planners will not select it as a move candidate. */
    bool movable = true;
};

/** One planned relocation. */
struct Move
{
    VmId vm = -1;
    HostId from = dc::invalidHostId;
    HostId to = dc::invalidHostId;

    bool operator==(const Move &) const = default;
};

/** Bin-packing heuristics for choosing a destination host (A2 ablation). */
enum class PackingHeuristic
{
    FirstFitDecreasing, ///< first host with room, largest VMs first
    BestFitDecreasing,  ///< tightest-fitting host, largest VMs first
    WorstFit,           ///< roomiest host (spreads load)
};

/** Human-readable heuristic name for tables. */
const char *toString(PackingHeuristic heuristic);

/**
 * Mutable planning snapshot with incremental usage bookkeeping.
 *
 * Host and VM ids may be sparse; lookups go through dense slot tables
 * sized by the largest id (cluster ids are sequential, so the tables are
 * compact in practice). Each host keeps the positions of its resident
 * VMs in vms(), sorted, so vmsOn() never scans the fleet; apply(),
 * refreshVm() and rollbackTrial() maintain that index.
 */
class PlacementModel
{
  public:
    /** Empty model; assign or rebuild before use. */
    PlacementModel() = default;

    PlacementModel(std::vector<PlannedHost> hosts,
                   std::vector<PlannedVm> vms);

    /** @name Queries */
    ///@{
    const std::vector<PlannedHost> &hosts() const { return hosts_; }
    const std::vector<PlannedVm> &vms() const { return vms_; }

    double cpuUsedMhz(HostId host) const;
    double memoryUsedMb(HostId host) const;

    /** Predicted CPU utilization of a host, in [0, inf). */
    double cpuUtilization(HostId host) const;

    /** VMs currently assigned to @p host, in vms() order. */
    std::vector<VmId> vmsOn(HostId host) const;

    /**
     * true if adding @p vm to @p host keeps predicted CPU below
     * @p cpu_limit_fraction of capacity and memory below capacity.
     * The host must be usable.
     */
    bool fits(const PlannedVm &vm, HostId host,
              double cpu_limit_fraction) const;

    const PlannedVm &vm(VmId id) const;
    const PlannedHost &host(HostId id) const;
    ///@}

    /** @name Positional queries (index into hosts()), for planner scans */
    ///@{
    /** Positions of the usable hosts, ascending (so in hosts() order). */
    const std::vector<std::uint32_t> &usableHosts() const
    {
        return usable_;
    }

    double cpuUsedAt(std::size_t index) const { return cpuUsed_[index]; }

    /** fits() for the host at position @p index of hosts(). */
    bool fitsAt(const PlannedVm &vm, std::size_t index,
                double cpu_limit_fraction) const
    {
        const PlannedHost &host_ref = hosts_[index];
        return host_ref.usable &&
               (vmGroup_.empty() || !holdsSibling(vm.id, index)) &&
               cpuUsed_[index] + vm.cpuMhz <=
                   cpu_limit_fraction * host_ref.cpuCapacityMhz + 1e-9 &&
               memUsed_[index] + vm.memoryMb <=
                   host_ref.memoryCapacityMb + 1e-9;
    }
    ///@}

    /** Apply a move (bookkeeping only). The move must be consistent. */
    void apply(const Move &move);

    /** @name Trial moves
     * Between beginTrial() and commitTrial()/rollbackTrial(), apply()
     * logs each touched host's pre-move usage. rollbackTrial() undoes the
     * trial's moves in reverse, restoring usage by assignment, so the
     * model ends bit-identical to its state at beginTrial().
     */
    ///@{
    void beginTrial();
    void commitTrial();
    void rollbackTrial();
    ///@}

    /**
     * Mark a VM unmovable for the rest of this model's lifetime. Planners
     * pin each VM they move so later planning passes in the same
     * management cycle cannot plan a second (un-executable) move for it.
     */
    void pin(VmId id);

    /**
     * Declare anti-affinity groups: VMs sharing a group must land on
     * pairwise distinct hosts (HA replicas, quorum members). fits() then
     * refuses a host already holding a group sibling. A VM may belong to
     * at most one group; unknown ids are ignored (churned-away VMs).
     * Pre-existing violations are tolerated (the planner will not move a
     * VM onto a conflict, but it does not repair history).
     */
    void
    setAntiAffinityGroups(const std::vector<std::vector<VmId>> &groups);

    /** Anti-affinity group of a VM, or -1. */
    int groupOf(VmId id) const;

    /** @name In-place refresh (same membership, new field values) */
    ///@{
    /** Refresh whether the host at position @p index of hosts() is
     *  usable. Call rebuildUsage() once every host and VM is refreshed. */
    void refreshHost(std::size_t index, bool usable)
    {
        hosts_[index].usable = usable;
    }

    /**
     * Refresh the VM at position @p index of vms() (its id is kept).
     * The resident index is touched only if its host changed. Call
     * rebuildUsage() once every VM is refreshed.
     */
    void refreshVm(std::size_t index, HostId host, double cpu_mhz,
                   bool movable)
    {
        PlannedVm &vm_ref = vms_[index];
        vm_ref.cpuMhz = cpu_mhz;
        vm_ref.movable = movable;
        if (vm_ref.host != host) {
            relinkResident(index, hostIndex(vm_ref.host), hostIndex(host));
            vm_ref.host = host;
        }
    }

    /**
     * Recompute the per-host usage accumulators from vms_, in the same
     * order as construction (so a refreshed model is bit-identical to a
     * freshly built one), and the usable-host list.
     */
    void rebuildUsage();
    ///@}

  private:
    /** Pre-move state of one trial move, for rollbackTrial(). */
    struct Undo
    {
        std::size_t vm;
        std::size_t from;
        std::size_t to;
        double fromCpu;
        double fromMem;
        double toCpu;
        double toMem;
    };

    std::size_t hostIndex(HostId id) const;
    std::size_t vmIndex(VmId id) const;

    /** true if the host at @p index holds an anti-affinity sibling of
     *  VM @p id. */
    bool holdsSibling(VmId id, std::size_t index) const;

    /** Move position @p index from host index @p from's resident list
     *  to @p to's, keeping both sorted. */
    void relinkResident(std::size_t index, std::size_t from,
                        std::size_t to);

    std::vector<PlannedHost> hosts_;
    std::vector<PlannedVm> vms_;
    /** id -> index into hosts_/vms_; -1 = unknown id. */
    std::vector<std::int32_t> hostSlot_;
    std::vector<std::int32_t> vmSlot_;
    std::vector<double> cpuUsed_;
    std::vector<double> memUsed_;
    /** Positions in hosts_ of the usable hosts, ascending. */
    std::vector<std::uint32_t> usable_;
    /** Per host index: positions in vms_ of its residents, ascending. */
    std::vector<std::vector<std::uint32_t>> residents_;
    bool trialOpen_ = false;
    std::vector<Undo> undo_;

    /** VM id -> anti-affinity group (absent = unconstrained). */
    std::unordered_map<VmId, int> vmGroup_;
    /** Per host index: group -> number of resident members. */
    std::vector<std::unordered_map<int, int>> hostGroupCount_;
};

/**
 * Plan the evacuation of @p victim: pack all of its VMs onto other usable
 * hosts, keeping every destination under @p target_utilization predicted
 * CPU and within memory.
 *
 * On success the model is updated and the move list returned; on failure
 * the model is left untouched and nullopt returned.
 */
std::optional<std::vector<Move>>
planEvacuation(PlacementModel &model, HostId victim,
               double target_utilization, PackingHeuristic heuristic,
               bool rack_affinity = false);

/**
 * Plan load-balancing moves (DRS-style):
 *  1. relieve hosts whose predicted utilization exceeds
 *     @p target_utilization, largest-offender first;
 *  2. then, if max-min utilization spread still exceeds
 *     @p imbalance_threshold, shift one VM at a time from the most to the
 *     least loaded host.
 *
 * The model is updated in place. At most @p max_moves moves are returned.
 */
std::vector<Move>
planRebalance(PlacementModel &model, double target_utilization,
              double imbalance_threshold, int max_moves,
              PackingHeuristic heuristic, bool rack_affinity = false);

} // namespace vpm::mgmt

#endif // VPM_CORE_PLACEMENT_HPP
