#include "replay/session.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <optional>
#include <ostream>

#include "core/policies.hpp"
#include "datacenter/cluster.hpp"
#include "datacenter/migration.hpp"
#include "power/idle_hierarchy.hpp"
#include "power/server_models.hpp"
#include "simcore/logging.hpp"
#include "sweep/runner.hpp"
#include "telemetry/json_util.hpp"
#include "telemetry/telemetry.hpp"

namespace vpm::replay {

namespace {

constexpr const char *kSpecSchema = "vpm-replay-spec-1";

using telemetry::exactNumber;

/** The registry preset @p policy resolves to on @p spec's rig. */
std::optional<mgmt::PolicyPreset>
presetFor(const ReplaySpec &spec, const std::string &policy)
{
    return mgmt::resolvePolicy(policy,
                               sim::SimTime::seconds(spec.evalIntervalS),
                               spec.exitLatencyS > 0.0);
}

/**
 * Why @p variant cannot be forked off a running @p spec session; empty
 * when it can. A fork only switches knobs: the manager's runtime-safe
 * subset (applyPolicyDelta), and the joint governor narrowed to its idle
 * half or idled. So the base must run the full governor, speed and idle
 * halves, and the variant must not power-manage with balancing off —
 * that is the hyperscale rig (hier), whose consolidation only ever
 * sleeps hosts the workload emptied, from time zero on; a fork off a
 * balanced prefix would be a run neither preset describes.
 */
std::string
branchRefusal(const ReplaySpec &spec, const std::string &variant)
{
    const std::optional<mgmt::PolicyPreset> base =
        presetFor(spec, spec.policy);
    if (!base || !base->joint || !base->joint->controlSpeed ||
        !base->joint->controlIdle)
        return "branching needs a base running the full joint governor "
               "(joint), got '" +
               spec.policy + "'";
    const std::optional<mgmt::PolicyPreset> target =
        presetFor(spec, variant);
    if (!target)
        return "unknown policy '" + variant + "' (expected " +
               mgmt::policyNameList() + ")";
    if (target->manager.powerManage && !target->manager.loadBalance)
        return "policy '" + variant +
               "' power-manages without balancing, which a fork off a "
               "balanced prefix cannot reach";
    return {};
}

bool
validateSpec(const ReplaySpec &spec, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "replay spec: " + what;
        return false;
    };
    if (spec.tracePath.empty())
        return fail("trace_path is required");
    if (spec.hosts < 1)
        return fail("hosts must be >= 1");
    if (spec.vms < 0)
        return fail("vms must be >= 0 (0 = one VM per trace series)");
    if (!(spec.vmCpuMhz > 0.0) || !(spec.vmMemoryMb > 0.0))
        return fail("vm_cpu_mhz and vm_memory_mb must be positive");
    if (!(spec.durationHours > 0.0))
        return fail("duration_hours must be positive");
    if (!(spec.evalIntervalS > 0.0))
        return fail("eval_interval_s must be positive");
    if (!(spec.managerPeriodMin > 0.0))
        return fail("manager_period_min must be positive");
    const std::int64_t eval_us =
        sim::SimTime::seconds(spec.evalIntervalS).micros();
    const std::int64_t period_us =
        sim::SimTime::minutes(spec.managerPeriodMin).micros();
    if (eval_us <= 0 || period_us % eval_us != 0)
        return fail("manager period must be a multiple of the evaluation "
                    "interval");
    if (!(spec.loadedFraction > 0.0) || spec.loadedFraction > 1.0)
        return fail("loaded_fraction must be in (0, 1]");
    if (spec.exitLatencyS < 0.0)
        return fail("exit_latency_s must be >= 0");
    if (spec.governorPeriodS < 0.0)
        return fail("governor_period_s must be >= 0");
    const std::optional<mgmt::PolicyPreset> preset =
        presetFor(spec, spec.policy);
    if (!preset)
        return fail("unknown policy '" + spec.policy + "' (expected " +
                    mgmt::policyNameList() + ")");
    if (spec.governorPeriodS > 0.0 && !preset->joint)
        return fail("governor_period_s needs a preset with an idle "
                    "hierarchy (cstates|joint|hier)");
    return true;
}

/** @name Section byte-builders (little helpers shared by capture()) */
///@{
void
putRaw(std::vector<std::uint8_t> &out, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    out.insert(out.end(), bytes, bytes + n);
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    putRaw(out, &v, sizeof(v));
}

void
putI64(std::vector<std::uint8_t> &out, std::int64_t v)
{
    putRaw(out, &v, sizeof(v));
}

void
putF64(std::vector<std::uint8_t> &out, double v)
{
    putRaw(out, &v, sizeof(v));
}

void
putAggregate(std::vector<std::uint8_t> &out, const dc::FleetAggregate &agg)
{
    putU64(out, agg.begin);
    putU64(out, agg.end);
    putF64(out, agg.demandMhz);
    putF64(out, agg.onEffectiveCapMhz);
    putF64(out, agg.cpuCapacityMhz);
    putI64(out, agg.hostsOn);
    putI64(out, agg.hostsAsleep);
    putI64(out, agg.hostsTransitioning);
    putI64(out, agg.emptyOn);
    out.push_back(agg.changed ? 1 : 0);
}
///@}

} // namespace

std::string
writeSpecJson(const ReplaySpec &spec)
{
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"" + std::string(kSpecSchema) + "\",\n";
    out += "  \"name\": \"" + telemetry::jsonEscape(spec.name) + "\",\n";
    out += "  \"trace_path\": \"" + telemetry::jsonEscape(spec.tracePath) +
           "\",\n";
    out += "  \"hosts\": " + std::to_string(spec.hosts) + ",\n";
    out += "  \"vms\": " + std::to_string(spec.vms) + ",\n";
    out += "  \"vm_cpu_mhz\": " + exactNumber(spec.vmCpuMhz) + ",\n";
    out += "  \"vm_memory_mb\": " + exactNumber(spec.vmMemoryMb) + ",\n";
    out += "  \"duration_hours\": " + exactNumber(spec.durationHours) + ",\n";
    out += "  \"eval_interval_s\": " + exactNumber(spec.evalIntervalS) + ",\n";
    out += "  \"manager_period_min\": " + exactNumber(spec.managerPeriodMin) +
           ",\n";
    out += "  \"policy\": \"" + telemetry::jsonEscape(spec.policy) + "\",\n";
    out += "  \"exit_latency_s\": " + exactNumber(spec.exitLatencyS) + ",\n";
    out += "  \"loaded_fraction\": " + exactNumber(spec.loadedFraction) + ",\n";
    out += std::string("  \"hierarchical\": ") +
           (spec.hierarchical ? "true" : "false") + ",\n";
    out += "  \"seed\": " + std::to_string(spec.seed) + ",\n";
    out += "  \"window_bytes\": " + std::to_string(spec.windowBytes) + ",\n";
    out += "  \"governor_period_s\": " + exactNumber(spec.governorPeriodS) +
           "\n";
    out += "}\n";
    return out;
}

bool
parseSpecJson(const std::string &text, ReplaySpec &out, std::string *error)
{
    telemetry::JsonValue doc;
    if (!telemetry::parseJson(text, doc, error))
        return false;
    if (!doc.isObject()) {
        if (error != nullptr)
            *error = "replay spec: not a JSON object";
        return false;
    }
    if (telemetry::stringOr(doc.find("schema"), "") != kSpecSchema) {
        if (error != nullptr)
            *error = std::string("replay spec: schema is not \"") +
                     kSpecSchema + "\"";
        return false;
    }
    // Every member is checked: an unknown key (a typo such as "polcy")
    // or a mistyped value would otherwise leave a default in place.
    ReplaySpec spec;
    std::string why;
    const bool read =
        telemetry::rejectUnknownMembers(
            doc,
            {"schema", "name", "trace_path", "hosts", "vms", "vm_cpu_mhz",
             "vm_memory_mb", "duration_hours", "eval_interval_s",
             "manager_period_min", "policy", "exit_latency_s",
             "loaded_fraction", "hierarchical", "seed", "window_bytes",
             "governor_period_s"},
            &why) &&
        telemetry::readMember(doc, "name", spec.name, &why) &&
        telemetry::readMember(doc, "trace_path", spec.tracePath, &why) &&
        telemetry::readInteger(doc, "hosts", 1, INT_MAX, spec.hosts, &why) &&
        telemetry::readInteger(doc, "vms", 0, INT_MAX, spec.vms, &why) &&
        telemetry::readMember(doc, "vm_cpu_mhz", spec.vmCpuMhz, &why) &&
        telemetry::readMember(doc, "vm_memory_mb", spec.vmMemoryMb, &why) &&
        telemetry::readMember(doc, "duration_hours", spec.durationHours,
                              &why) &&
        telemetry::readMember(doc, "eval_interval_s", spec.evalIntervalS,
                              &why) &&
        telemetry::readMember(doc, "manager_period_min",
                              spec.managerPeriodMin, &why) &&
        telemetry::readMember(doc, "policy", spec.policy, &why) &&
        telemetry::readMember(doc, "exit_latency_s", spec.exitLatencyS,
                              &why) &&
        telemetry::readMember(doc, "loaded_fraction", spec.loadedFraction,
                              &why) &&
        telemetry::readMember(doc, "hierarchical", spec.hierarchical,
                              &why) &&
        telemetry::readInteger(doc, "seed", 0, telemetry::kMaxExactInteger,
                               spec.seed, &why) &&
        telemetry::readInteger(doc, "window_bytes", 1,
                               telemetry::kMaxExactInteger, spec.windowBytes,
                               &why) &&
        telemetry::readMember(doc, "governor_period_s",
                              spec.governorPeriodS, &why);
    if (!read) {
        if (error != nullptr)
            *error = "replay spec: " + why;
        return false;
    }
    if (!validateSpec(spec, error))
        return false;
    out = std::move(spec);
    return true;
}

ReplaySession::~ReplaySession() = default;

sim::SimTime
ReplaySession::now() const
{
    return simulator_.now();
}

sim::SimTime
ReplaySession::duration() const
{
    return sim::SimTime::hours(spec_.durationHours);
}

std::unique_ptr<ReplaySession>
ReplaySession::create(const ReplaySpec &spec, std::string *error)
{
    if (!validateSpec(spec, error))
        return nullptr;

    std::unique_ptr<ReplaySession> session(new ReplaySession);
    session->spec_ = spec;
    session->rng_ = sim::Rng(spec.seed);
    session->trace_ =
        TraceFile::open(spec.tracePath,
                        static_cast<std::size_t>(spec.windowBytes), error);
    if (!session->trace_)
        return nullptr;
    session->buildFleet(error);
    if (!session->cluster_)
        return nullptr;
    return session;
}

void
ReplaySession::buildFleet(std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "replay session: " + what;
        cluster_.reset();
    };

    const std::uint32_t trace_vms = trace_->info().vmCount;
    if (trace_vms == 0)
        return fail("trace has no VM series");
    const int vm_count =
        spec_.vms > 0 ? spec_.vms : static_cast<int>(trace_vms);

    // validateSpec() already resolved the name.
    mgmt::PolicyPreset preset = *presetFor(spec_, spec_.policy);
    preset.manager.period = sim::SimTime::minutes(spec_.managerPeriodMin);
    preset.manager.hierarchical = spec_.hierarchical;

    const power::HostPowerSpec power_spec =
        spec_.exitLatencyS > 0.0
            ? power::bladeWithSyntheticState(
                  sim::SimTime::seconds(spec_.exitLatencyS))
            : power::enterpriseBlade2013();
    perHostPeakWatts_ = power_spec.peakPowerWatts();

    const dc::HostConfig host_config{};
    const int loaded_hosts = std::max(
        1, static_cast<int>(static_cast<double>(spec_.hosts) *
                            spec_.loadedFraction));
    const int worst_per_host =
        (vm_count + loaded_hosts - 1) / loaded_hosts;
    if (static_cast<double>(worst_per_host) * spec_.vmMemoryMb >
        host_config.memoryCapacityMb)
        return fail("fleet does not fit: " +
                    std::to_string(worst_per_host) + " VMs x " +
                    exactNumber(spec_.vmMemoryMb) + " MB exceeds host memory; "
                    "grow hosts or loaded_fraction");

    cluster_ = std::make_unique<dc::Cluster>(simulator_);
    for (int h = 0; h < spec_.hosts; ++h)
        cluster_->addHost(host_config, power_spec);

    for (int v = 0; v < vm_count; ++v) {
        workload::VmWorkloadSpec vm_spec;
        vm_spec.name = "vm" + std::to_string(v);
        vm_spec.cpuMhz = spec_.vmCpuMhz;
        vm_spec.memoryMb = spec_.vmMemoryMb;
        vm_spec.trace = trace_->vmTrace(
            static_cast<std::uint32_t>(v) % trace_vms);
        cluster_->addVm(std::move(vm_spec));
    }

    if (preset.joint) {
        const power::IdleHierarchySpec hier_spec =
            power::modernIdleHierarchy();
        for (const auto &host_ptr : cluster_->hosts())
            host_ptr->attachIdleHierarchy(
                std::make_unique<power::IdleHierarchy>(simulator_,
                                                       hier_spec));
    }

    // Striped placement over the loaded prefix: deterministic, spreads
    // every trace phase across the loaded hosts, and leaves the tail
    // empty for the consolidation policy to park or sleep.
    for (int v = 0; v < vm_count; ++v)
        cluster_->placeVm(static_cast<dc::VmId>(v),
                          static_cast<dc::HostId>(v % loaded_hosts));

    migration_ = std::make_unique<dc::MigrationEngine>(simulator_,
                                                       *cluster_);
    dc::DatacenterConfig dc_config;
    dc_config.evaluationInterval =
        sim::SimTime::seconds(spec_.evalIntervalS);
    dcsim_ = std::make_unique<dc::DatacenterSim>(simulator_, *cluster_,
                                                 *migration_, dc_config);
    manager_ = std::make_unique<mgmt::VpmManager>(
        simulator_, *cluster_, *migration_, *dcsim_, preset.manager);
    manager_->start();
    if (preset.joint) {
        joint_ = std::make_unique<mgmt::JointPolicyController>(
            *cluster_, *dcsim_, *preset.joint);
        joint_->start();
    }

    if (spec_.governorPeriodS > 0.0) {
        // Scheduled from the main thread, so the event stream — and
        // therefore every checkpoint — is deterministic.
        governor_ = std::make_unique<dc::IdleGovernor>(
            simulator_, *cluster_,
            sim::SimTime::seconds(spec_.governorPeriodS));
        governor_->start();
    }

    const double total_capacity = cluster_->totalCpuCapacityMhz();
    const double per_host_capacity = cluster_->host(0).cpuCapacityMhz();
    offeredLoad_ = stats::TimeWeighted(simulator_.now(), 0.0);
    idealPower_ = stats::TimeWeighted(simulator_.now(), 0.0);
    dcsim_->addEvaluationHook([this, total_capacity, per_host_capacity] {
        const double demand = cluster_->totalVmDemandMhz();
        offeredLoad_.update(simulator_.now(), demand / total_capacity);
        idealPower_.update(simulator_.now(), demand / per_host_capacity *
                                                 perHostPeakWatts_);
    });
}

void
ReplaySession::runTo(sim::SimTime t)
{
    if (finished_)
        sim::fatal("ReplaySession::runTo after finish()");
    if (t < simulator_.now())
        sim::fatal("ReplaySession::runTo into the past");
    if (!started_) {
        dcsim_->start();
        started_ = true;
    }
    simulator_.runUntil(t);
}

CheckpointData
ReplaySession::capture()
{
    CheckpointData ckpt;
    ckpt.specJson = writeSpecJson(spec_);
    ckpt.timeUs = simulator_.now().micros();
    ckpt.eventsProcessed = simulator_.eventsProcessed();

    // Section order is the format's producer contract (checkpoint.hpp):
    // fleet, tree, events, rng, policy, telemetry.
    std::vector<std::uint8_t> fleet;
    cluster_->fleet().appendSnapshot(fleet);
    ckpt.sections.emplace_back("fleet", std::move(fleet));

    std::vector<std::uint8_t> tree;
    const dc::FleetTree &fleet_tree = manager_->fleetTree();
    if (fleet_tree.configured()) {
        putU64(tree, fleet_tree.racks().size());
        for (const dc::FleetAggregate &agg : fleet_tree.racks())
            putAggregate(tree, agg);
        putU64(tree, fleet_tree.pods().size());
        for (const dc::FleetAggregate &agg : fleet_tree.pods())
            putAggregate(tree, agg);
        putAggregate(tree, fleet_tree.root());
    }
    ckpt.sections.emplace_back("tree", std::move(tree));

    std::vector<std::uint8_t> events;
    {
        const auto pending = simulator_.pendingSnapshot();
        putU64(events, pending.size());
        for (const auto &event : pending) {
            putI64(events, event.when.micros());
            putU64(events, event.seq);
            putU64(events, event.label.size());
            putRaw(events, event.label.data(), event.label.size());
        }
        putI64(events, simulator_.now().micros());
        putU64(events, simulator_.eventsProcessed());
    }
    ckpt.sections.emplace_back("events", std::move(events));

    std::vector<std::uint8_t> rng;
    for (const std::uint64_t word : rng_.state())
        putU64(rng, word);
    rng.push_back(rng_.hasSpareNormal() ? 1 : 0);
    putF64(rng, rng_.spareNormal());
    ckpt.sections.emplace_back("rng", std::move(rng));

    std::vector<std::uint8_t> policy;
    {
        std::vector<std::uint8_t> manager_state;
        manager_->serializeState(manager_state);
        putU64(policy, manager_state.size());
        putRaw(policy, manager_state.data(), manager_state.size());
        policy.push_back(joint_ ? 1 : 0);
        if (joint_) {
            std::vector<std::uint8_t> joint_state;
            joint_->serializeState(joint_state);
            putU64(policy, joint_state.size());
            putRaw(policy, joint_state.data(), joint_state.size());
        }
    }
    ckpt.sections.emplace_back("policy", std::move(policy));

    std::vector<std::uint8_t> telem;
    {
        const telemetry::Telemetry &global = telemetry::global();
        telem.push_back(global.enabled() ? 1 : 0);
        putU64(telem, global.journal().size());
        putU64(telem, global.journal().recorded());
        putU64(telem, global.journal().labelCount());
        putU64(telem, global.timeseries().seriesCount());
        putU64(telem, global.timeseries().memoryBytes());
    }
    ckpt.sections.emplace_back("telemetry", std::move(telem));
    return ckpt;
}

std::uint64_t
ReplaySession::stateDigest()
{
    const CheckpointData ckpt = capture();
    std::uint64_t h = fnv1a(nullptr, 0);
    const auto fold = [&h](const void *data, std::size_t n) {
        h = fnv1a(static_cast<const std::uint8_t *>(data), n, h);
    };
    fold(&ckpt.timeUs, sizeof(ckpt.timeUs));
    fold(&ckpt.eventsProcessed, sizeof(ckpt.eventsProcessed));
    for (const auto &[name, bytes] : ckpt.sections) {
        fold(name.data(), name.size());
        fold(bytes.data(), bytes.size());
    }
    return h;
}

bool
ReplaySession::applyVariant(const std::string &policy, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "applyVariant: " + what;
        return false;
    };
    if (finished_)
        return fail("session already finished");
    const std::string refusal = branchRefusal(spec_, policy);
    if (!refusal.empty())
        return fail(refusal);
    const mgmt::PolicyPreset target = *presetFor(spec_, policy);

    manager_->applyPolicyDelta(target.manager);

    bool reset_freq = false;
    if (!target.joint) {
        // No C-state management in the variant: the governor goes
        // passive (still counting cycles so the evaluation cadence stays
        // identical) and already-descended hierarchies wake.
        joint_->setActive(false);
        reset_freq = true;
        for (const auto &host_ptr : cluster_->hosts()) {
            power::IdleHierarchy *hier = host_ptr->idleHierarchy();
            if (hier != nullptr && host_ptr->isOn())
                hier->wakeAll();
        }
    } else if (!target.joint->controlSpeed) {
        // Keep the idle half of the governor, drop the speed half.
        joint_->setControlSpeed(false);
        reset_freq = true;
    }

    if (reset_freq) {
        bool changed = false;
        for (const auto &host_ptr : cluster_->hosts()) {
            if (host_ptr->frequencyFraction() != 1.0) {
                host_ptr->setFrequencyFraction(1.0);
                changed = true;
            }
        }
        if (changed)
            dcsim_->reallocate();
    }
    return true;
}

mgmt::ScenarioResult
ReplaySession::finish()
{
    if (finished_)
        sim::fatal("ReplaySession::finish called twice");
    runTo(duration());
    finished_ = true;

    const sim::SimTime end = simulator_.now();
    offeredLoad_.finish(end);
    idealPower_.finish(end);

    mgmt::ScenarioResult result;
    result.metrics = dcsim_->metrics();
    result.manager = manager_->stats();
    result.offeredLoadFraction = offeredLoad_.average();
    result.idealProportionalKwh = idealPower_.integralSeconds() / 3.6e6;
    mgmt::collectRunOutcomes(*cluster_, *migration_, joint_.get(), end,
                             result);
    result.eventsProcessed = simulator_.eventsProcessed();
    return result;
}

std::unique_ptr<ReplaySession>
restoreCheckpoint(const CheckpointData &ckpt, bool verify,
                  std::string *error)
{
    ReplaySpec spec;
    if (!parseSpecJson(ckpt.specJson, spec, error))
        return nullptr;
    std::unique_ptr<ReplaySession> session =
        ReplaySession::create(spec, error);
    if (!session)
        return nullptr;
    session->runTo(sim::SimTime::micros(ckpt.timeUs));
    if (!verify)
        return session;

    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "checkpoint verification failed: " + what;
        return nullptr;
    };
    const CheckpointData again = session->capture();
    if (again.eventsProcessed != ckpt.eventsProcessed)
        return fail("events processed: checkpoint " +
                    std::to_string(ckpt.eventsProcessed) +
                    ", re-execution " +
                    std::to_string(again.eventsProcessed));
    if (again.sections.size() != ckpt.sections.size())
        return fail("section count differs");
    for (std::size_t s = 0; s < ckpt.sections.size(); ++s) {
        const auto &[want_name, want] = ckpt.sections[s];
        const auto &[got_name, got] = again.sections[s];
        if (want_name != got_name)
            return fail("section order: expected '" + want_name +
                        "', re-execution produced '" + got_name + "'");
        if (want.size() != got.size())
            return fail("section '" + want_name + "': size " +
                        std::to_string(want.size()) + " vs " +
                        std::to_string(got.size()));
        for (std::size_t i = 0; i < want.size(); ++i) {
            if (want[i] != got[i])
                return fail("section '" + want_name +
                            "' diverges at byte " + std::to_string(i));
        }
    }
    return session;
}

bool
runBranches(const CheckpointData &ckpt,
            const sweep::SweepManifest &manifest,
            const std::vector<sweep::CellSpec> &cells,
            const BranchOptions &options, telemetry::SweepMatrix &out,
            std::ostream &log, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = "branch: " + what;
        return false;
    };

    ReplaySpec spec;
    if (!parseSpecJson(ckpt.specJson, spec, error))
        return false;

    // The policy axis is the branch dimension; every other axis is fleet
    // geometry, which a mid-run fork cannot change — require singletons
    // matching the checkpoint's spec.
    if (manifest.workloads.size() != 1)
        return fail("the workload axis must be a singleton (the trace IS "
                    "the workload)");
    if (manifest.exitLatenciesS.size() != 1 ||
        manifest.exitLatenciesS[0] != spec.exitLatencyS)
        return fail("exit_latency_s must be exactly [" +
                    exactNumber(spec.exitLatencyS) +
                    "] (the checkpoint's blade)");
    if (manifest.loadScales.size() != 1)
        return fail("load_scale must be a singleton (demand comes from "
                    "the trace)");
    if (manifest.hostCounts.size() != 1 ||
        manifest.hostCounts[0] != spec.hosts)
        return fail("hosts must be exactly [" + std::to_string(spec.hosts) +
                    "] (the checkpoint's fleet)");
    int resolved_vms = spec.vms;
    if (resolved_vms == 0) {
        std::shared_ptr<TraceFile> trace = TraceFile::open(
            spec.tracePath, 1u << 20, error);
        if (!trace)
            return false;
        resolved_vms = static_cast<int>(trace->info().vmCount);
    }
    if (manifest.vmCounts.size() != 1 ||
        manifest.vmCounts[0] != resolved_vms)
        return fail("vms must be exactly [" + std::to_string(resolved_vms) +
                    "] (the checkpoint's fleet)");
    if (manifest.durationHours != spec.durationHours)
        return fail("duration_hours must equal the spec's " +
                    exactNumber(spec.durationHours) +
                    " (branches race to the same finish line)");
    for (const sweep::CellSpec &cell_spec : cells) {
        const std::string refusal = branchRefusal(spec, cell_spec.policy);
        if (!refusal.empty())
            return fail(refusal);
    }

    if (options.verify) {
        std::unique_ptr<ReplaySession> probe =
            restoreCheckpoint(ckpt, true, error);
        if (!probe)
            return false;
        log << "[branch] checkpoint verified at t=" << ckpt.timeUs
            << " us (" << ckpt.eventsProcessed << " events)\n";
    }

    // Branch workers own whole single-threaded sessions.
    out.name = manifest.name;
    out.exec = "branch";
    const std::string manifest_hash = sweep::manifestContentHash(manifest);
    sweep::runCells(
        cells, options.threads, "branch", log,
        [&](const sweep::CellSpec &cell_spec) {
            telemetry::SweepCell cell =
                sweep::cellSkeleton(cell_spec, {spec.seed}, 1, manifest_hash);
            const auto t0 = std::chrono::steady_clock::now();
            std::unique_ptr<ReplaySession> session =
                ReplaySession::create(spec, &cell.error);
            if (session) {
                session->runTo(sim::SimTime::micros(ckpt.timeUs));
                if (!session->applyVariant(cell_spec.policy, &cell.error))
                    session.reset();
            }
            if (!session) {
                cell.status = telemetry::CellStatus::Failed;
                return cell;
            }
            const mgmt::ScenarioResult result = session->finish();
            const auto t1 = std::chrono::steady_clock::now();
            sweep::CellSamples samples;
            samples.addRun(result);
            samples.addWall(
                std::chrono::duration<double, std::milli>(t1 - t0).count(),
                result.eventsProcessed);
            samples.finish(cell);
            return cell;
        },
        out);
    return true;
}

} // namespace vpm::replay
