#include "sweep/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "stats/table.hpp"
#include "sweep/manifest.hpp"

namespace vpm::sweep {

namespace {

/** "point [lo, hi]" for table cells. */
std::string
ciCell(const stats::ConfidenceInterval &ci)
{
    if (ci.empty())
        return "-";
    if (ci.width() == 0.0)
        return axisNum(ci.point);
    return axisNum(ci.point) + " [" + axisNum(ci.lo) + ", " +
           axisNum(ci.hi) + "]";
}

double
metricPoint(const telemetry::SweepCell &cell, const std::string &name)
{
    const telemetry::CellMetric *metric = cell.metric(name);
    return metric ? metric->ci.point : 0.0;
}

/** The comparison-group key: the id with the policy assignment removed. */
std::string
groupKey(const telemetry::SweepCell &cell)
{
    const std::string prefix = "policy=" + cell.axis("policy") + "/";
    if (cell.id.rfind(prefix, 0) == 0)
        return cell.id.substr(prefix.size());
    return cell.id;
}

/** a dominates b: <= on every objective, < on at least one. */
bool
dominates(const ParetoEntry &a, const ParetoEntry &b)
{
    if (a.energyJ > b.energyJ || a.slaViolationPct > b.slaViolationPct ||
        a.wakeP99S > b.wakeP99S)
        return false;
    return a.energyJ < b.energyJ || a.slaViolationPct < b.slaViolationPct ||
           a.wakeP99S < b.wakeP99S;
}

/** CI separation on every objective whose point estimates differ. */
bool
ciSeparatedOnDiffering(const telemetry::SweepCell &a,
                       const telemetry::SweepCell &b)
{
    static const char *objectives[] = {"energy_j", "sla_violation_pct",
                                       "wake_p99_s"};
    for (const char *name : objectives) {
        const telemetry::CellMetric *ma = a.metric(name);
        const telemetry::CellMetric *mb = b.metric(name);
        if (!ma || !mb)
            return false;
        if (ma->ci.point == mb->ci.point)
            continue; // tied objective: separation not required
        if (!stats::intervalsSeparated(ma->ci, mb->ci))
            return false;
    }
    return true;
}

} // namespace

ParetoReport
paretoFrontier(const telemetry::SweepMatrix &matrix)
{
    ParetoReport report;

    // Bucket ok cells into comparison groups, first-appearance order.
    for (const telemetry::SweepCell &cell : matrix.cells) {
        if (cell.status != telemetry::CellStatus::Ok)
            continue;
        const std::string key = groupKey(cell);
        ParetoGroup *group = nullptr;
        for (ParetoGroup &g : report.groups)
            if (g.key == key)
                group = &g;
        if (!group) {
            report.groups.push_back(ParetoGroup{key, {}});
            group = &report.groups.back();
        }
        ParetoEntry entry;
        entry.cellId = cell.id;
        entry.index = cell.index;
        entry.policy = cell.axis("policy");
        entry.energyJ = metricPoint(cell, "energy_j");
        entry.slaViolationPct = metricPoint(cell, "sla_violation_pct");
        entry.wakeP99S = metricPoint(cell, "wake_p99_s");
        group->entries.push_back(std::move(entry));
    }

    for (ParetoGroup &group : report.groups) {
        std::sort(group.entries.begin(), group.entries.end(),
                  [](const ParetoEntry &a, const ParetoEntry &b) {
                      return a.index < b.index;
                  });
        for (ParetoEntry &entry : group.entries) {
            entry.onFrontier = true;
            for (const ParetoEntry &other : group.entries) {
                if (&other == &entry || !dominates(other, entry))
                    continue;
                entry.onFrontier = false;
                if (entry.dominatedBy.empty()) {
                    entry.dominatedBy = other.cellId;
                    const telemetry::SweepCell *dominator =
                        nullptr;
                    const telemetry::SweepCell *dominated = nullptr;
                    for (const telemetry::SweepCell &cell : matrix.cells) {
                        if (cell.id == other.cellId)
                            dominator = &cell;
                        if (cell.id == entry.cellId)
                            dominated = &cell;
                    }
                    entry.ciSeparated =
                        dominator && dominated &&
                        ciSeparatedOnDiffering(*dominator, *dominated);
                }
            }
        }
    }
    return report;
}

void
writeParetoText(const ParetoReport &report, std::ostream &out)
{
    out << "Pareto frontier: minimize {energy J, SLA violation %, wake "
           "p99 s}\n";
    for (const ParetoGroup &group : report.groups) {
        out << "\ngroup " << group.key << "\n";
        for (const ParetoEntry &entry : group.entries) {
            out << "  " << (entry.onFrontier ? "*" : " ") << " "
                << entry.policy << ": energy " << axisNum(entry.energyJ)
                << " J, SLA viol " << axisNum(entry.slaViolationPct)
                << "%, wake p99 " << axisNum(entry.wakeP99S) << " s";
            if (!entry.onFrontier) {
                out << "  <- dominated by " << entry.dominatedBy
                    << (entry.ciSeparated ? " (CIs separated)"
                                          : " (CIs overlap)");
            }
            out << "\n";
        }
    }
    out << "\n('*' marks frontier members; domination is on point "
           "estimates, the CI note\nsays whether every differing "
           "objective is also separated at 95% confidence.)\n";
}

void
writePolicyTable(const telemetry::SweepMatrix &matrix, std::ostream &out)
{
    stats::Table table(
        "sweep '" + matrix.name + "': deterministic metrics, 95% CIs over " +
            (matrix.cells.empty()
                 ? std::string("0")
                 : std::to_string(matrix.cells.front().seeds.size())) +
            " seed(s)",
        {"cell", "policy", "workload", "exit s", "load", "status",
         "energy J", "SLA viol %", "wake p99 s"});
    for (const telemetry::SweepCell &cell : matrix.cells) {
        const telemetry::CellMetric *energy = cell.metric("energy_j");
        const telemetry::CellMetric *sla =
            cell.metric("sla_violation_pct");
        const telemetry::CellMetric *wake = cell.metric("wake_p99_s");
        table.addRow({std::to_string(cell.index),
                      cell.axis("policy"),
                      cell.axis("workload"),
                      cell.axis("exit_latency_s"),
                      cell.axis("load_scale"),
                      toString(cell.status),
                      energy ? ciCell(energy->ci) : "-",
                      sla ? ciCell(sla->ci) : "-",
                      wake ? ciCell(wake->ci) : "-"});
    }
    table.print(out);
}

void
writePolicyCsv(const telemetry::SweepMatrix &matrix, std::ostream &out)
{
    out << "cell_id,index,status,policy,workload,exit_latency_s,"
           "load_scale,hosts,vms";
    static const char *metrics[] = {"energy_j", "sla_violation_pct",
                                    "wake_p99_s"};
    for (const char *name : metrics)
        out << "," << name << "_point," << name << "_lo," << name
            << "_hi," << name << "_n";
    out << "\n";
    for (const telemetry::SweepCell &cell : matrix.cells) {
        out << cell.id << "," << cell.index << ","
            << toString(cell.status) << "," << cell.axis("policy") << ","
            << cell.axis("workload") << "," << cell.axis("exit_latency_s")
            << "," << cell.axis("load_scale") << "," << cell.axis("hosts")
            << "," << cell.axis("vms");
        for (const char *name : metrics) {
            const telemetry::CellMetric *metric = cell.metric(name);
            if (metric) {
                out << "," << axisNum(metric->ci.point) << ","
                    << axisNum(metric->ci.lo) << "," << axisNum(metric->ci.hi)
                    << "," << metric->ci.n;
            } else {
                out << ",,,,";
            }
        }
        out << "\n";
    }
}

std::size_t
writeArtifacts(const telemetry::SweepMatrix &matrix, const std::string &dir)
{
    {
        std::ofstream out(dir + "/matrix.json");
        telemetry::writeSweepJson(matrix, out);
    }
    {
        std::ofstream out(dir + "/report.txt");
        writePolicyTable(matrix, out);
        out << "\n";
        writeParetoText(paretoFrontier(matrix), out);
    }
    {
        std::ofstream out(dir + "/report.csv");
        writePolicyCsv(matrix, out);
    }
    std::size_t failed = 0;
    for (const telemetry::SweepCell &cell : matrix.cells)
        if (cell.status != telemetry::CellStatus::Ok)
            ++failed;
    return failed;
}

} // namespace vpm::sweep
