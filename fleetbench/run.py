#!/usr/bin/env python3
"""Fleet-day benchmark runner.

Builds the simulator and the fleetbench harness from this checkout, runs
one workload for a wall-clock budget, checks every simulated day's
statistics and prints one JSON result as the last line of stdout:

    python3 fleetbench/run.py --workload consolidation_day --seed 3 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (untraced days only); --trace 1
reports the per-layer metrics and the tracing overhead. See README.md for
the workloads, the metric table and how to regenerate golden.json.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
RUN_TIMEOUT_S = 170

# Median wall seconds of the harness's calibration kernel on the host the
# benchmark was written on (4-vCPU shared Intel Xeon VM, quiet). Every
# reported time is scaled by REF_CALIB_S / the kernel's time measured
# around the same day, so it reads as if taken on that host at full speed.
REF_CALIB_S = 0.037

# Time fields of a harness day record that the host-speed correction
# scales (interval_ns and the zone/dispatch ns are scaled as well).
TIME_KEYS = ("setup_s", "write_s", "open_s", "wall_s", "cpu_s")

# name -> (harness workload, evaluation threads, check threads). A seed
# without golden values is checked by running one day at the check thread
# count: statistics must not depend on the thread count. Every timed run
# uses one thread; see README.md for why no 4-thread workload is timed.
WORKLOADS = {
    "consolidation_day": ("consolidation_day", 1, 4),
    "governor_fleet": ("governor_fleet", 1, 4),
    "trace_replay": ("trace_replay", 1, 4),
}

STAT_KEYS = (
    "energy_kwh", "satisfaction", "sla_violation_fraction", "migrations",
    "power_actions", "sleeps", "wakes", "idle_transitions", "avg_hosts_on",
)

END_TO_END = {
    "sim_host_s_per_s": "host-s/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "cpu_s": "s",
}

# Per-layer metrics read from the profiler's existing zones: (unit, kind,
# zone names; a trailing '.' matches every zone with that prefix). "self"
# sums exclusive time; "inclusive"/"calls" count only the outermost
# matching zone on each path, so nested matches are not counted twice.
ZONE_METRICS = {
    "simcore.queue_s": ("s", "self", ("sim.queue.push", "sim.queue.pop")),
    "simcore.dispatch_s": ("s", "self", ("sim.dispatch",)),
    "datacenter.refresh_s": ("s", "self", ("dcsim.evaluate.refresh",)),
    "datacenter.sample_s": ("s", "self", ("dcsim.evaluate.sample",)),
    "datacenter.hostpass_s": ("s", "self", ("dcsim.evaluate.hostpass",)),
    "datacenter.migration_s": ("s", "self", ("migration.",)),
    "core.cycle_s": ("s", "inclusive", ("mgmt.cycle", "mgmt.hier_cycle")),
    "core.cycles": ("count", "calls", ("mgmt.cycle", "mgmt.hier_cycle")),
    "core.placement_s": ("s", "self", ("placement.", "mgmt.build_model")),
    "core.observe_s": ("s", "self", ("mgmt.observe", "predictor.track")),
}

# Event labels whose total dispatch time is a layer metric.
DISPATCH_METRICS = {"power.governor_s": ("s", "idle-governor")}

# Counts read from the run's public results: metric -> (unit, day key).
COUNT_METRICS = {
    "simcore.events": ("count", "events"),
    "power.idle_transitions": ("count", "idle_transitions"),
    "datacenter.migrations": ("count", "migrations"),
    "core.sleeps": ("count", "sleeps"),
    "core.wakes": ("count", "wakes"),
    "replay.chunk_loads": ("count", "chunk_loads"),
}

# The harness's own spans (untraced days) and the comparison of the
# untraced and traced halves of the run.
SPAN_METRICS = {
    "replay.write_s": "s",
    "replay.open_s": "s",
    "replay.reload_ratio": "ratio",
    "session.interval_ms_p50": "ms",
    "session.interval_ms_p95": "ms",
    "session.interval_samples": "count",
    "trace.untraced_sim_host_s_per_s": "host-s/s",
    "trace.traced_sim_host_s_per_s": "host-s/s",
    "trace.overhead_ratio": "ratio",
    "host.raw_sim_host_s_per_s": "host-s/s",
    "host.calib_ms": "ms",
}


def per_layer_units():
    units = {name: spec[0] for name, spec in ZONE_METRICS.items()}
    units.update({name: spec[0] for name, spec in DISPATCH_METRICS.items()})
    units.update({name: spec[0] for name, spec in COUNT_METRICS.items()})
    units.update(SPAN_METRICS)
    return units


def fail(message):
    """Exit non-zero without printing a result."""
    print("fleetbench: " + message, file=sys.stderr)
    sys.exit(2)


def nearest_rank(samples, pct):
    """Nearest-rank percentile: always one of the samples, so never above
    the observed maximum."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def speed_factor(day):
    """How much faster the host ran the calibration kernel around @p day
    than the reference host did; below 1 on a slowed host."""
    return day["calib_s"] / REF_CALIB_S


def corrected(day):
    """A copy of @p day with every time divided by its speed factor."""
    factor = speed_factor(day)
    out = dict(day)
    for key in TIME_KEYS:
        out[key] = day[key] / factor
    out["interval_ns"] = [ns / factor for ns in day["interval_ns"]]
    if "zones" in day:
        out["zones"] = [[name, parent, calls, incl / factor, excl / factor]
                        for name, parent, calls, incl, excl in day["zones"]]
        out["dispatch"] = {label: [count, ns / factor]
                           for label, (count, ns) in day["dispatch"].items()}
    return out


def host_rate(days):
    """Simulated host-seconds per wall second over all of @p days' timed
    runs: a total, so a day that straddles a change of host speed weighs
    by its length rather than flipping a median."""
    return (sum(d["hosts"] * d["sim_s"] for d in days) /
            sum(d["wall_s"] for d in days))


def stats_of(day):
    return {key: day["stats"][key] for key in STAT_KEYS}


def count_failures(days, reference):
    """Days whose statistics differ from @p reference in any key."""
    return sum(1 for day in days if stats_of(day) != reference)


def matches(name, patterns):
    return any(name.startswith(p) if p.endswith(".") else name == p
               for p in patterns)


def zone_sum(zones, kind, patterns):
    """Sum one column of a merged zone tree over the matching zones.

    zones rows are [name, parent, calls, inclusive_ns, exclusive_ns];
    parent indexes the full node list, where index 0 is the synthetic
    root that the harness leaves out (so row i is node i + 1)."""
    total = 0
    for name, parent, calls, incl, excl in zones:
        if not matches(name, patterns):
            continue
        if kind == "self":
            total += excl
            continue
        ancestor = parent
        nested = False
        while ancestor != 0:
            row = zones[ancestor - 1]
            if matches(row[0], patterns):
                nested = True
                break
            ancestor = row[1]
        if not nested:
            total += incl if kind == "inclusive" else calls
    return total


def program_literals():
    """Every string literal in the simulator's sources; a zone or event
    label that none of them names no longer exists in the program."""
    literals = set()
    for path in sorted((ROOT / "src").rglob("*.[ch]pp")):
        literals.update(re.findall(r'"([^"\\]*)"',
                                   path.read_text(errors="replace")))
    return literals


def in_program(patterns, literals):
    return any(matches(lit, patterns) for lit in literals)


def end_to_end_metrics(untraced, peak_rss_kb):
    """@p untraced are speed-corrected days."""
    values = {
        "sim_host_s_per_s": host_rate(untraced),
        "setup_s": statistics.median(d["setup_s"] for d in untraced),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "cpu_s": statistics.median(d["cpu_s"] for d in untraced),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(untraced, traced, literals, raw_untraced):
    """Per-layer metrics, per simulated day, from speed-corrected days;
    @p raw_untraced are the untraced days before correction. A zone metric
    whose zones the program no longer names is left out rather than
    reported as zero."""
    values = {}
    for name, (_, kind, patterns) in ZONE_METRICS.items():
        if not in_program(patterns, literals):
            continue
        total = sum(zone_sum(d["zones"], kind, patterns) for d in traced)
        scale = 1.0 if kind == "calls" else 1e-9
        values[name] = total * scale / len(traced)
    for name, (_, label) in DISPATCH_METRICS.items():
        if not in_program((label,), literals):
            continue
        total = sum(d["dispatch"].get(label, [0, 0])[1] for d in traced)
        values[name] = total * 1e-9 / len(traced)
    for name, (_, key) in COUNT_METRICS.items():
        day = untraced[0]
        values[name] = day[key] if key in day else day["stats"][key]

    values["replay.write_s"] = statistics.median(d["write_s"] for d in untraced)
    values["replay.open_s"] = statistics.median(d["open_s"] for d in untraced)
    chunks = untraced[0]["file_chunks"]
    # 1.0 = each chunk decoded once; 0 when the workload reads no trace.
    values["replay.reload_ratio"] = (
        untraced[0]["chunk_loads"] / chunks if chunks else 0.0)
    intervals = [ns for d in untraced for ns in d["interval_ns"]]
    values["session.interval_ms_p50"] = nearest_rank(intervals, 50) / 1e6
    values["session.interval_ms_p95"] = nearest_rank(intervals, 95) / 1e6
    values["session.interval_samples"] = len(intervals)
    untraced_rate = host_rate(untraced)
    traced_rate = host_rate(traced)
    values["trace.untraced_sim_host_s_per_s"] = untraced_rate
    values["trace.traced_sim_host_s_per_s"] = traced_rate
    values["trace.overhead_ratio"] = traced_rate / untraced_rate
    values["host.raw_sim_host_s_per_s"] = host_rate(raw_untraced)
    values["host.calib_ms"] = statistics.median(
        d["calib_s"] for d in raw_untraced) * 1e3

    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]}
            for name in units if name in values}


def build():
    """Configure once, then (re)build; returns the harness binary and
    its scratch directory for trace files."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources at " + str(ROOT / "src"))
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "fleetbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return build_dir / "fleetbench", build_root / "fleetbench_work"


def run_harness(binary, work_dir, program, seed, threads, seconds, trace):
    cmd = [str(binary), "--workload", program, "--seed", str(seed),
           "--threads", str(threads), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", str(work_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("harness exited %d: %s" % (done.returncode, " ".join(cmd)))
    records = [json.loads(line) for line in done.stdout.splitlines()]
    days = [r for r in records if r["kind"] == "day"]
    process = [r for r in records if r["kind"] == "process"]
    if not days or len(process) != 1:
        fail("harness output is incomplete: " + " ".join(cmd))
    return days, process[0]


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def regenerate_golden(binary, work_dir, seed):
    """Record each harness workload's statistics at @p seed, after
    checking that they do not depend on the thread count."""
    workloads = {}
    for program in sorted({spec[0] for spec in WORKLOADS.values()}):
        runs = [stats_of(run_harness(binary, work_dir, program, seed,
                                     threads, 0, False)[0][0])
                for threads in (1, 4)]
        if runs[0] != runs[1]:
            fail(program + ": statistics differ between 1 and 4 threads")
        workloads[program] = runs[0]
    golden = {
        "seed": seed,
        "note": ("Statistics of one simulated day per harness workload at "
                 "this seed. The simulator event count is deliberately "
                 "not checked: it is an engine artifact that batching the "
                 "per-host idle governor removes while every statistic "
                 "stays identical."),
        "workloads": workloads,
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden.json at --seed and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds >= 0:
        fail("--seed and --seconds must be non-negative")

    binary, work_dir = build()
    if args.regen_golden:
        regenerate_golden(binary, work_dir, args.seed)
        return
    if args.workload is None:
        fail("--workload is required")

    program, threads, check_threads = WORKLOADS[args.workload]
    golden = load_golden()
    days, process = run_harness(binary, work_dir, program, args.seed,
                                threads, args.seconds, args.trace == 1)
    if args.seed == golden["seed"]:
        reference = golden["workloads"][program]
    else:
        check_days, _ = run_harness(binary, work_dir, program, args.seed,
                                    check_threads, 0, False)
        reference = stats_of(check_days[0])
    failed = count_failures(days, reference)

    # The warm-up day is checked but not measured.
    raw_untraced = [d for d in days if not d["traced"] and not d["warmup"]]
    untraced = [corrected(d) for d in raw_untraced]
    traced = [corrected(d) for d in days if d["traced"]]
    if args.trace == 1:
        metrics = per_layer_metrics(untraced, traced, program_literals(),
                                    raw_untraced)
    else:
        metrics = end_to_end_metrics(untraced, process["peak_rss_kb"])
    print(json.dumps({"correct": failed == 0, "attempted": len(days),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
