#include "datacenter/host.hpp"

#include <algorithm>
#include <utility>

#include "power/idle_hierarchy.hpp"
#include "simcore/logging.hpp"

namespace vpm::dc {

Host::Host(sim::Simulator &simulator, HostId id, std::string name,
           const HostConfig &config, const power::HostPowerSpec &power_spec)
    : simulator_(simulator), id_(id), store_(nullptr),
      name_(std::move(name)), config_(config), fsm_(simulator, power_spec),
      meter_(simulator.now(), power_spec.idlePowerWatts())
{
    ownedStore_ = std::make_unique<FleetStore>();
    store_ = ownedStore_.get();
    store_->registerHost(id_, config_.cpuCapacityMhz);
    init(power_spec);
}

Host::Host(sim::Simulator &simulator, HostId id, std::string name,
           const HostConfig &config, const power::HostPowerSpec &power_spec,
           FleetStore &store)
    : simulator_(simulator), id_(id), store_(&store),
      name_(std::move(name)), config_(config), fsm_(simulator, power_spec),
      meter_(simulator.now(), power_spec.idlePowerWatts())
{
    // The cluster registers the row before constructing the view.
    if (static_cast<std::size_t>(id_) >= store_->hostCount())
        sim::panic("Host '%s': id %d not registered in the fleet store",
                   name_.c_str(), id_);
    init(power_spec);
}

void
Host::init(const power::HostPowerSpec &power_spec)
{
    (void)power_spec;
    if (config_.cpuCapacityMhz <= 0.0)
        sim::fatal("Host '%s': CPU capacity must be positive", name_.c_str());
    if (config_.memoryCapacityMb <= 0.0)
        sim::fatal("Host '%s': memory capacity must be positive",
                   name_.c_str());

    // Seed the store's phase byte and power mirror from the live objects
    // (registerHost defaults assume a host born On at idle draw).
    store_->setHostPhase(id_, static_cast<std::uint8_t>(fsm_.phase()));
    store_->setHostHeldWatts(id_, meter_.heldWatts());

    // Keep the meter exact across phase changes. A phase change also
    // flips the allocator's on/off branch, so the grants are stale. This
    // observer is registered before any outside observer, so the store's
    // phase byte and O(1) counts are already updated when later observers
    // (e.g. DatacenterSim's hosts-on tracker) read them.
    fsm_.addObserver([this](power::PowerPhase, power::PowerPhase to) {
        store_->setHostPhase(id_, static_cast<std::uint8_t>(to));
        bumpChangeStamp();
        store_->markHost(id_, FleetStore::kAllocDirty);
        store_->queueAllocDirty(id_);
        updatePowerDraw();
    });

    // Journal this host's power timeline under its cluster id/name: the
    // journal's power_transition spans are the per-host power history.
    fsm_.setTelemetryTrack(id_, name_);
}

Host::~Host() = default;

void
Host::updatePowerDraw()
{
    const double watts = powerWatts();
    meter_.update(simulator_.now(), watts);
    // heldWatts() may differ from the requested watts (the meter clamps
    // backwards time); mirror what the meter actually holds.
    store_->setHostHeldWatts(id_, meter_.heldWatts());
}

double
Host::powerWatts() const
{
    double watts;
    const double freq = frequencyFraction();
    if (!isOn() || freq >= 1.0) {
        watts = fsm_.powerWatts(utilization());
    } else {
        // DVFS model: static (idle) power is frequency-independent; the
        // dynamic part scales ~quadratically with frequency (voltage
        // tracks frequency). Utilization is already relative to scaled
        // capacity.
        const power::HostPowerSpec &spec = fsm_.spec();
        const double idle = spec.idlePowerWatts();
        const double at_full = spec.activePowerWatts(utilization());
        watts = idle + (at_full - idle) * freq * freq;
    }
    // Idle-hierarchy residency shaves the static share while On (the
    // hierarchy reports zero savings when paused, i.e. off-phase power
    // is entirely the FSM's business).
    if (idleHierarchy_ && isOn())
        watts = std::max(0.0, watts - idleHierarchy_->powerSavingsWatts());
    return watts;
}

void
Host::attachIdleHierarchy(std::unique_ptr<power::IdleHierarchy> hierarchy)
{
    if (idleHierarchy_)
        sim::panic("Host '%s': idle hierarchy attached twice",
                   name_.c_str());
    idleHierarchy_ = std::move(hierarchy);
    store_->setHostHasHierarchy(id_, true);

    // Transition energy is an impulse on the meter; any residency change
    // also moves the On draw, so re-hold.
    idleHierarchy_->setTransitionCallback([this](double joules) {
        meter_.addEnergyJoules(joules);
        updatePowerDraw();
        // Depth changes move wakeLatency(), a latency-factor input the
        // evaluate pass otherwise has no way to see (busy-count and
        // pause/resume changes all ride host events that mark the flags
        // themselves).
        store_->markHostFactorDirty(id_);
    });
    idleHierarchy_->setTelemetryTrack(id_);

    // The hierarchy lives under the FSM: leaving On pauses it (forced
    // exits ride the system transition), reaching On resumes it at C0.
    fsm_.addObserver([this](power::PowerPhase, power::PowerPhase to) {
        if (to == power::PowerPhase::On)
            idleHierarchy_->resume();
        else if (idleHierarchy_->active())
            idleHierarchy_->pause();
    });
    if (!isOn())
        idleHierarchy_->pause();
}

void
Host::setFrequencyFraction(double fraction)
{
    if (fraction <= 0.0 || fraction > 1.0)
        sim::panic("Host '%s': frequency fraction %g outside (0, 1]",
                   name_.c_str(), fraction);
    store_->setHostFrequencyFraction(id_, fraction);
    // Effective capacity moved; grants must respread.
    store_->markHost(id_, FleetStore::kAllocDirty);
    store_->queueAllocDirty(id_);
    updatePowerDraw();
}

void
Host::finishMetering(sim::SimTime t)
{
    meter_.finish(t);
}

void
Host::addVm(Vm &vm)
{
    if (std::find(vms_.begin(), vms_.end(), &vm) != vms_.end())
        sim::panic("Host '%s': VM '%s' added twice", name_.c_str(),
                   vm.name().c_str());
    vms_.push_back(&vm);
    vmIds_.push_back(vm.id());
    vm.setResidentHost(this);
    bumpChangeStamp();
    markMembershipChanged();
}

void
Host::removeVm(Vm &vm)
{
    const auto it = std::find(vms_.begin(), vms_.end(), &vm);
    if (it == vms_.end())
        sim::panic("Host '%s': VM '%s' not resident", name_.c_str(),
                   vm.name().c_str());
    vmIds_.erase(vmIds_.begin() + (it - vms_.begin()));
    vms_.erase(it);
    vm.setResidentHost(nullptr);
    bumpChangeStamp();
    markMembershipChanged();
}

double
Host::vmDemandMhz() const
{
    if (store_->hostFlags(id_) & FleetStore::kDemandDirty) {
        double total = 0.0;
        for (const Vm *vm : vms_)
            total += vm->currentDemandMhz();
        store_->setHostDemandCacheClean(id_, total);
    }
    return store_->hostDemandCacheMhz(id_);
}

double
Host::grantedMhz() const
{
    if (store_->hostFlags(id_) & FleetStore::kGrantedDirty) {
        double total = 0.0;
        for (const Vm *vm : vms_)
            total += vm->grantedMhz();
        store_->setHostGrantedCacheClean(id_, total);
    }
    return store_->hostGrantedCacheMhz(id_);
}

double
Host::committedMemoryMb() const
{
    if (store_->hostFlags(id_) & FleetStore::kMemoryDirty) {
        double total = 0.0;
        for (const Vm *vm : vms_)
            total += vm->memoryMb();
        store_->setHostMemoryCacheClean(id_, total);
    }
    return store_->hostMemoryCacheMb(id_);
}

void
Host::addMigrationOverheadMhz(double mhz)
{
    double overhead = store_->hostMigrationOverheadMhz(id_) + mhz;
    if (overhead < -1e-6)
        sim::panic("Host '%s': migration overhead went negative (%g MHz)",
                   name_.c_str(), overhead);
    // Snap accumulation residue so an idle host reads exactly zero.
    if (overhead < 1e-9)
        overhead = 0.0;
    store_->setHostMigrationOverheadMhz(id_, overhead);
    // Overhead competes with VM grants for capacity.
    store_->markHost(id_, FleetStore::kAllocDirty);
    store_->queueAllocDirty(id_);
}

double
Host::utilization() const
{
    if (!isOn())
        return 0.0;
    const double busy = grantedMhz() + migrationOverheadMhz();
    return std::clamp(busy / effectiveCpuCapacityMhz(), 0.0, 1.0);
}

double
Host::demandUtilization() const
{
    const double demand = vmDemandMhz() + migrationOverheadMhz();
    return demand / effectiveCpuCapacityMhz();
}

void
Host::adjustInboundReservedMemoryMb(double delta_mb)
{
    inboundReservedMemoryMb_ += delta_mb;
    if (inboundReservedMemoryMb_ < -1e-6)
        sim::panic("Host '%s': inbound memory reservation went negative "
                   "(%g MB)", name_.c_str(), inboundReservedMemoryMb_);
    // Snap accumulation residue so a quiescent host reads exactly zero.
    if (inboundReservedMemoryMb_ < 1e-9)
        inboundReservedMemoryMb_ = 0.0;
}

void
Host::adjustActiveMigrations(int delta)
{
    activeMigrations_ += delta;
    if (activeMigrations_ < 0)
        sim::panic("Host '%s': active migration count went negative",
                   name_.c_str());
}

} // namespace vpm::dc
