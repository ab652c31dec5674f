#include "datacenter/migration.hpp"

#include <algorithm>
#include <utility>

#include "simcore/logging.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::dc {

namespace {

/** Completed-migration durations, fleet-wide. 0-120 s in 2 s buckets spans
 *  the regimes the paper's workloads produce. Handle resolved once. */
telemetry::HistogramMetric &
migrationSecondsHistogram()
{
    static telemetry::HistogramMetric &h =
        telemetry::global().metrics().histogram("migration.seconds", 0.0,
                                                120.0, 60);
    return h;
}

} // namespace

MigrationEngine::MigrationEngine(sim::Simulator &simulator, Cluster &cluster,
                                 const MigrationConfig &config)
    : simulator_(simulator), cluster_(cluster), config_(config)
{
    if (config_.bandwidthMbPerSec <= 0.0)
        sim::fatal("MigrationEngine: bandwidth must be positive");
    if (config_.dirtyPageFactor < 1.0)
        sim::fatal("MigrationEngine: dirty-page factor must be >= 1");
    if (config_.maxConcurrentPerHost < 1)
        sim::fatal("MigrationEngine: need at least one migration slot");
    if (config_.utilizationDirtyFactor < 0.0)
        sim::fatal("MigrationEngine: negative utilization dirty factor");
    if (config_.cpuTaxFraction < 0.0 || config_.cpuTaxFraction > 1.0)
        sim::fatal("MigrationEngine: CPU tax fraction %g outside [0, 1]",
                   config_.cpuTaxFraction);
    if (config_.fixedOverhead < sim::SimTime())
        sim::fatal("MigrationEngine: negative fixed overhead");
}

sim::SimTime
MigrationEngine::expectedDuration(const Vm &vm) const
{
    const double utilization =
        vm.cpuMhz() > 0.0
            ? std::min(vm.currentDemandMhz() / vm.cpuMhz(), 1.0)
            : 0.0;
    const double dirty_factor =
        config_.dirtyPageFactor +
        config_.utilizationDirtyFactor * utilization;
    const double copy_seconds =
        vm.memoryMb() * dirty_factor / config_.bandwidthMbPerSec;
    return config_.fixedOverhead + sim::SimTime::seconds(copy_seconds);
}

sim::SimTime
MigrationEngine::expectedDuration(const Vm &vm, HostId source,
                                  HostId dest) const
{
    if (!topology_)
        return expectedDuration(vm);
    const double bandwidth = topology_->bandwidthBetween(source, dest);
    const double flat = config_.bandwidthMbPerSec;
    const sim::SimTime flat_duration = expectedDuration(vm);
    // Rescale only the copy portion by the locality bandwidth.
    const sim::SimTime copy = flat_duration - config_.fixedOverhead;
    return config_.fixedOverhead + copy * (flat / bandwidth);
}

bool
MigrationEngine::validate(const Vm &vm, HostId dest,
                          bool is_queued_retry) const
{
    const char *ctx = is_queued_retry ? "queued migration" : "migration";
    if (!vm.placed()) {
        sim::warn("%s of '%s' invalid: VM unplaced", ctx, vm.name().c_str());
        return false;
    }
    if (vm.host() == dest) {
        sim::warn("%s of '%s' invalid: already on destination", ctx,
                  vm.name().c_str());
        return false;
    }
    const Host &dest_ref = cluster_.host(dest);
    if (!dest_ref.isOn()) {
        sim::warn("%s of '%s' invalid: destination '%s' is not on", ctx,
                  vm.name().c_str(), dest_ref.name().c_str());
        return false;
    }
    if (!memoryFitsAfterPending(vm, dest)) {
        sim::warn("%s of '%s' invalid: no memory headroom on '%s' even "
                  "after pending departures", ctx, vm.name().c_str(),
                  dest_ref.name().c_str());
        return false;
    }
    return true;
}

bool
MigrationEngine::memoryFitsAfterPending(const Vm &vm, HostId dest) const
{
    // Headroom once every resident VM already booked to leave has left;
    // in-flight inbound reservations still count.
    const Host &dest_ref = cluster_.host(dest);
    double departing_mb = 0.0;
    for (const Vm *resident : dest_ref.vms()) {
        const HostId leaving_to = destinationOf(resident->id());
        if (leaving_to != invalidHostId && leaving_to != dest)
            departing_mb += resident->memoryMb();
    }
    return dest_ref.committedMemoryMb() +
               dest_ref.inboundReservedMemoryMb() - departing_mb +
               vm.memoryMb() <=
           dest_ref.memoryCapacityMb() + 1e-6;
}

bool
MigrationEngine::memoryFitsNow(const Vm &vm, HostId dest) const
{
    // The host's reservation already covers concurrent inbound flights.
    return cluster_.memoryFits(vm, cluster_.host(dest));
}

bool
MigrationEngine::slotsFree(HostId source, HostId dest) const
{
    if (cluster_.host(source).activeMigrations() >=
            config_.maxConcurrentPerHost ||
        cluster_.host(dest).activeMigrations() >=
            config_.maxConcurrentPerHost) {
        return false;
    }
    return !topology_ || topology_->uplinkSlotsFree(source, dest);
}

void
MigrationEngine::setTopology(Topology *topology)
{
    // Queued requests' stamps and in-flight uplink reservations belong to
    // the network they were made on.
    if (activeCount_ > 0 || !queue_.empty())
        sim::panic("MigrationEngine::setTopology: %d migrations in flight "
                   "and %zu queued", activeCount_, queue_.size());
    topology_ = topology;
}

void
MigrationEngine::setDestination(VmId vm_id, HostId dest)
{
    const auto index = static_cast<std::size_t>(vm_id);
    if (index >= destination_.size()) {
        const std::size_t size = std::max(index + 1, cluster_.vmCount());
        destination_.resize(size, invalidHostId);
        activeDuration_.resize(size);
    }
    destination_[index] = dest;
}

void
MigrationEngine::stamp(Request &req) const
{
    const FleetStore &fleet = cluster_.fleet();
    req.source = cluster_.vm(req.vm).host();
    req.sourceStamp = fleet.hostChangeStamp(req.source);
    req.destStamp = fleet.hostChangeStamp(req.dest);
    if (topology_) {
        req.sourceRackStamp =
            topology_->uplinkStamp(topology_->rackOf(req.source));
        req.destRackStamp =
            topology_->uplinkStamp(topology_->rackOf(req.dest));
    }
}

bool
MigrationEngine::stale(const Request &req) const
{
    // The VM cannot leave its source without the source's stamp moving
    // (removeVm bumps it), so the recorded source is still where it is.
    const FleetStore &fleet = cluster_.fleet();
    if (fleet.hostChangeStamp(req.source) != req.sourceStamp ||
        fleet.hostChangeStamp(req.dest) != req.destStamp)
        return true;
    return topology_ &&
           (topology_->uplinkStamp(topology_->rackOf(req.source)) !=
                req.sourceRackStamp ||
            topology_->uplinkStamp(topology_->rackOf(req.dest)) !=
                req.destRackStamp);
}

bool
MigrationEngine::request(VmId vm_id, HostId dest)
{
    PROF_ZONE("migration.request");
    const Vm &vm = cluster_.vm(vm_id);
    if (involved(vm_id)) {
        sim::warn("migration of '%s' rejected: already migrating or queued",
                  vm.name().c_str());
        return false;
    }
    if (!validate(vm, dest, false))
        return false;

    setDestination(vm_id, dest);
    if (slotsFree(vm.host(), dest) && memoryFitsNow(vm, dest)) {
        start(vm_id, dest);
    } else {
        // Waits for a migration slot, or for a departing VM to free
        // memory on the destination (dependent moves serialize here).
        Request req{vm_id, dest, telemetry::currentContext()};
        stamp(req);
        queue_.push_back(req);
    }
    return true;
}

bool
MigrationEngine::involved(VmId vm) const
{
    return destinationOf(vm) != invalidHostId;
}

HostId
MigrationEngine::destinationOf(VmId vm) const
{
    const auto index = static_cast<std::size_t>(vm);
    return index < destination_.size() ? destination_[index]
                                       : invalidHostId;
}

void
MigrationEngine::start(VmId vm_id, HostId dest)
{
    PROF_ZONE("migration.start");
    Vm &vm = cluster_.vm(vm_id);
    const HostId source = vm.host();
    Host &src_ref = cluster_.host(source);
    Host &dest_ref = cluster_.host(dest);

    vm.setMigrating(true);
    src_ref.adjustActiveMigrations(1);
    dest_ref.adjustActiveMigrations(1);
    dest_ref.adjustInboundReservedMemoryMb(vm.memoryMb());
    // The reservation can invalidate requests bound for dest. The rest of
    // a start only takes slots away, which never lets a request start.
    dest_ref.bumpChangeStamp();

    // Charge the pre-copy CPU tax to both endpoints for the duration.
    const double tax = config_.cpuTaxFraction * vm.cpuMhz();
    src_ref.addMigrationOverheadMhz(tax);
    dest_ref.addMigrationOverheadMhz(tax);
    src_ref.updatePowerDraw();
    dest_ref.updatePowerDraw();

    ++started_;
    ++activeCount_;

    if (topology_)
        topology_->acquireUplink(source, dest);

    // Freeze the duration at start: the VM's activity at departure is
    // what determined the pre-copy effort.
    const sim::SimTime duration = expectedDuration(vm, source, dest);
    sim::debug("migration of '%s' %s -> %s started (%s)",
               vm.name().c_str(), src_ref.name().c_str(),
               dest_ref.name().c_str(), duration.toString().c_str());

    telemetry::Telemetry &tel = telemetry::global();
    if (tel.enabled()) {
        tel.journal().registerTrack(telemetry::TrackDomain::Vm, vm_id,
                                    vm.name());
        tel.journal().migrationStart(simulator_.now().micros(), vm_id,
                                     source, dest, duration.toSeconds());
    }

    activeDuration_[static_cast<std::size_t>(vm_id)] = duration;
    simulator_.schedule(
        duration,
        [this, vm_id, source, dest] { complete(vm_id, source, dest); },
        "migration.complete");
}

void
MigrationEngine::complete(VmId vm_id, HostId source, HostId dest)
{
    PROF_ZONE("migration.complete");
    Vm &vm = cluster_.vm(vm_id);
    Host &src_ref = cluster_.host(source);
    Host &dest_ref = cluster_.host(dest);

    const double tax = config_.cpuTaxFraction * vm.cpuMhz();
    src_ref.addMigrationOverheadMhz(-tax);
    dest_ref.addMigrationOverheadMhz(-tax);
    src_ref.adjustActiveMigrations(-1);
    dest_ref.adjustActiveMigrations(-1);
    dest_ref.adjustInboundReservedMemoryMb(-vm.memoryMb());
    // Slots and the reservation are free again (moveVm below bumps both
    // as well, but an abort does not move the VM).
    src_ref.bumpChangeStamp();
    dest_ref.bumpChangeStamp();

    if (topology_) {
        topology_->releaseUplink(source, dest);
        if (!topology_->sameRack(source, dest))
            ++crossRack_;
    }

    vm.setMigrating(false);
    setDestination(vm_id, invalidHostId);
    --activeCount_;

    // A crash on either endpoint mid-copy kills the stream: abort, the
    // VM stays wherever it physically is (the source).
    if (!src_ref.isOn() || !dest_ref.isOn()) {
        ++aborted_;
        telemetry::global().journal().migrationAbort(
            simulator_.now().micros(), vm_id, source, dest,
            "endpoint lost power");
        sim::warn("migration of '%s' aborted: endpoint lost power",
                  vm.name().c_str());
        src_ref.updatePowerDraw();
        dest_ref.updatePowerDraw();
        drainQueue();
        return;
    }

    ++completed_;
    const double actual_seconds =
        activeDuration_[static_cast<std::size_t>(vm_id)].toSeconds();
    durations_.add(actual_seconds);
    migrationSecondsHistogram().observe(actual_seconds);
    telemetry::global().journal().migrationFinish(
        simulator_.now().micros(), vm_id, source, dest, actual_seconds);

    cluster_.moveVm(vm_id, dest);
    src_ref.updatePowerDraw();
    dest_ref.updatePowerDraw();

    if (onComplete_)
        onComplete_(vm_id, source, dest);

    drainQueue();
}

void
MigrationEngine::drainQueue()
{
    PROF_ZONE("migration.drain_queue");
    // Start every queued request whose endpoints now have slots, in FIFO
    // order. One pass is enough: slots only free up on completion, which
    // re-drains. A request none of whose inputs changed since its last
    // evaluation would be kept again, so it is kept without evaluating;
    // starts and drops earlier in this pass bump the stamps they touch.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        Request &req = queue_[i];
        if (stale(req)) {
            const Vm &vm = cluster_.vm(req.vm);
            if (!validate(vm, req.dest, true)) {
                // The VM no longer departs its host: requests bound there
                // counted its memory as leaving.
                setDestination(req.vm, invalidHostId);
                if (vm.placed())
                    cluster_.host(vm.host()).bumpChangeStamp();
                ++dropped_;
                continue;
            }
            if (slotsFree(vm.host(), req.dest) &&
                memoryFitsNow(vm, req.dest)) {
                // We are inside some other migration's completion event;
                // restore the context of the decision that queued it.
                telemetry::TraceScope scope(req.context);
                start(req.vm, req.dest);
                continue;
            }
            stamp(req);
        }
        if (kept != i)
            queue_[kept] = req;
        ++kept;
    }
    queue_.resize(kept);
}

std::vector<std::pair<VmId, HostId>>
MigrationEngine::queuedRequests() const
{
    std::vector<std::pair<VmId, HostId>> out;
    out.reserve(queue_.size());
    for (const Request &req : queue_)
        out.emplace_back(req.vm, req.dest);
    return out;
}

void
MigrationEngine::setOnComplete(CompletionHandler handler)
{
    onComplete_ = std::move(handler);
}

} // namespace vpm::dc
