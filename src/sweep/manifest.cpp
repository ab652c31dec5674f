#include "sweep/manifest.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <istream>
#include <sstream>
#include <type_traits>

#include "core/policies.hpp"
#include "telemetry/json_util.hpp"

namespace vpm::sweep {

const std::vector<std::string> kKnownPolicies(std::begin(mgmt::kPolicyNames),
                                              std::end(mgmt::kPolicyNames));
const std::vector<std::string> kKnownWorkloads = {"steady", "surge"};

namespace {

using telemetry::JsonValue;

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

bool
readStringAxis(const JsonValue *axes, const char *name,
               const std::vector<std::string> &known,
               std::vector<std::string> &out, std::string *error)
{
    const JsonValue *axis = axes->find(name);
    if (!axis)
        return true; // keep the default
    if (!axis->isArray() || axis->array.empty())
        return fail(error, std::string("axis '") + name +
                               "' must be a non-empty array");
    out.clear();
    for (const JsonValue &value : axis->array) {
        if (value.kind != JsonValue::Kind::String)
            return fail(error, std::string("axis '") + name +
                                   "' holds a non-string value");
        if (std::find(known.begin(), known.end(), value.string) ==
            known.end())
            return fail(error, std::string("axis '") + name +
                                   "': unknown value '" + value.string +
                                   "'");
        out.push_back(value.string);
    }
    return true;
}

/**
 * Number axis: every value a number in [@p min, @p max]; an integral
 * @p T also wants whole numbers.
 */
template <typename T>
bool
readNumberAxis(const JsonValue *axes, const char *name, double min,
               double max, std::vector<T> &out, std::string *error)
{
    const JsonValue *axis = axes->find(name);
    if (!axis)
        return true;
    if (!axis->isArray() || axis->array.empty())
        return fail(error, std::string("axis '") + name +
                               "' must be a non-empty array");
    constexpr bool kWhole = std::is_integral_v<T>;
    const std::string wants =
        kWhole ? "integers in [" + axisNum(min) + ", " +
                     std::to_string(static_cast<std::uint64_t>(max)) + "]"
               : "numbers >= " + axisNum(min);
    out.clear();
    for (const JsonValue &value : axis->array) {
        if (value.kind != JsonValue::Kind::Number || value.number < min ||
            value.number > max ||
            (kWhole && value.number != std::floor(value.number)))
            return fail(error,
                        std::string("axis '") + name + "' wants " + wants);
        out.push_back(static_cast<T>(value.number));
    }
    return true;
}

} // namespace

std::string
axisNum(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

std::uint64_t
SweepManifest::cellCount() const
{
    return static_cast<std::uint64_t>(policies.size()) * workloads.size() *
           exitLatenciesS.size() * loadScales.size() * hostCounts.size() *
           vmCounts.size();
}

bool
parseManifest(std::istream &in, SweepManifest &out, std::string *error)
{
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JsonValue root;
    if (!telemetry::parseJson(buffer.str(), root, error))
        return false;
    if (!root.isObject())
        return fail(error, "top level is not an object");

    const std::string schema =
        telemetry::stringOr(root.find("schema"), "");
    if (schema != "vpm-sweep-manifest-1")
        return fail(error, "unsupported schema '" + schema +
                               "' (want vpm-sweep-manifest-1)");

    out.name = "sweep";
    out.durationHours = 6.0;
    out.repeats = 1;
    if (!telemetry::rejectUnknownMembers(
            root, {"schema", "name", "duration_hours", "repeats", "axes"},
            error) ||
        !telemetry::readMember(root, "name", out.name, error) ||
        !telemetry::readMember(root, "duration_hours", out.durationHours,
                               error) ||
        !telemetry::readInteger(root, "repeats", 1, INT_MAX, out.repeats,
                                error))
        return false;
    if (!(out.durationHours > 0.0))
        return fail(error, "duration_hours must be positive");

    // Defaults for every optional axis (single-valued axes collapse in
    // the cross product, so they are free).
    out.policies = {"joint"};
    out.workloads = {"steady"};
    out.exitLatenciesS = {15.0};
    out.loadScales = {0.5};
    out.hostCounts = {8};
    out.vmCounts = {40};
    out.seeds = {42};

    const JsonValue *axes = root.find("axes");
    if (!axes)
        return fail(error, "missing 'axes' object");
    if (!axes->isObject())
        return fail(error, "'axes' is not an object");

    if (!readStringAxis(axes, "policy", kKnownPolicies, out.policies,
                        error))
        return false;
    if (!readStringAxis(axes, "workload", kKnownWorkloads, out.workloads,
                        error))
        return false;
    constexpr double kUnbounded = HUGE_VAL;
    if (!readNumberAxis(axes, "exit_latency_s", 1e-6, kUnbounded,
                        out.exitLatenciesS, error) ||
        !readNumberAxis(axes, "load_scale", 1e-6, kUnbounded,
                        out.loadScales, error) ||
        !readNumberAxis(axes, "hosts", 1, INT_MAX, out.hostCounts, error) ||
        !readNumberAxis(axes, "vms", 1, INT_MAX, out.vmCounts, error) ||
        !readNumberAxis(axes, "seeds", 0,
                        static_cast<double>(telemetry::kMaxExactInteger),
                        out.seeds, error))
        return false;

    // Reject axes we do not understand: a typo ("exit_latency") must not
    // silently sweep nothing.
    for (const auto &[key, value] : axes->object) {
        static const std::vector<std::string> known = {
            "policy",     "workload", "exit_latency_s", "load_scale",
            "hosts",      "vms",      "seeds"};
        if (std::find(known.begin(), known.end(), key) == known.end())
            return fail(error, "unknown axis '" + key + "'");
    }
    return true;
}

std::vector<CellSpec>
expandGrid(const SweepManifest &manifest)
{
    std::vector<CellSpec> cells;
    cells.reserve(manifest.cellCount());
    std::uint64_t index = 0;
    for (const std::string &policy : manifest.policies) {
        for (const std::string &workload : manifest.workloads) {
            for (const double exit_s : manifest.exitLatenciesS) {
                for (const double load : manifest.loadScales) {
                    for (const int hosts : manifest.hostCounts) {
                        for (const int vms : manifest.vmCounts) {
                            CellSpec cell;
                            cell.index = index++;
                            cell.policy = policy;
                            cell.workload = workload;
                            cell.exitLatencyS = exit_s;
                            cell.loadScale = load;
                            cell.hosts = hosts;
                            cell.vms = vms;
                            cell.id = "policy=" + policy +
                                      "/workload=" + workload +
                                      "/exit=" + axisNum(exit_s) +
                                      "/load=" + axisNum(load) +
                                      "/hosts=" + std::to_string(hosts) +
                                      "/vms=" + std::to_string(vms);
                            cells.push_back(std::move(cell));
                        }
                    }
                }
            }
        }
    }
    return cells;
}

std::string
manifestContentHash(const SweepManifest &manifest)
{
    // Canonical text of the result-determining fields, hashed FNV-1a.
    // Axis values render through axisNum so the hash matches however the
    // JSON spelled the number ("15" vs "15.0").
    std::string text = "duration=" + axisNum(manifest.durationHours);
    text += ";policies=";
    for (const std::string &v : manifest.policies)
        text += v + ",";
    text += ";workloads=";
    for (const std::string &v : manifest.workloads)
        text += v + ",";
    text += ";exit=";
    for (const double v : manifest.exitLatenciesS)
        text += axisNum(v) + ",";
    text += ";load=";
    for (const double v : manifest.loadScales)
        text += axisNum(v) + ",";
    text += ";hosts=";
    for (const int v : manifest.hostCounts)
        text += std::to_string(v) + ",";
    text += ";vms=";
    for (const int v : manifest.vmCounts)
        text += std::to_string(v) + ",";
    text += ";seeds=";
    for (const std::uint64_t v : manifest.seeds)
        text += std::to_string(v) + ",";

    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : text) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

} // namespace vpm::sweep
