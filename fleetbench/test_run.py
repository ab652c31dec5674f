#!/usr/bin/env python3
"""Tests of the benchmark runner's own logic (no build needed).

    python3 -m unittest discover -s fleetbench -p 'test_*.py'
"""

import copy
import json
import random
import re
import unittest
from pathlib import Path

import run

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads(
    (Path(run.__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text())


def fake_day(traced, stats=None, wall_s=2.0, calib_s=run.REF_CALIB_S):
    """A harness day record with a small two-level zone tree."""
    day = {
        "kind": "day", "traced": traced, "warmup": False, "calib_s": calib_s,
        "setup_s": 0.25, "write_s": 0.1,
        "open_s": 0.15, "wall_s": wall_s, "cpu_s": 2.1, "hosts": 100,
        "sim_s": 86400.0, "events": 5000, "chunk_loads": 30,
        "file_chunks": 20, "interval_ns": list(range(1000, 288001, 1000)),
        "stats": dict(stats or {key: 1 for key in run.STAT_KEYS}),
    }
    if traced:
        # rows: [name, parent, calls, inclusive_ns, exclusive_ns]; node 1
        # is mgmt.cycle, node 3 a nested mgmt.hier_cycle under node 2.
        day["zones"] = [
            ["mgmt.cycle", 0, 96, 9_000_000, 1_000_000],
            ["placement.plan", 1, 96, 5_000_000, 3_000_000],
            ["mgmt.hier_cycle", 2, 4, 2_000_000, 2_000_000],
            ["sim.queue.push", 0, 10, 4_000, 4_000],
            ["migration.start", 0, 3, 700, 500],
            ["migration.complete", 0, 3, 900, 900],
        ]
        day["dispatch"] = {"idle-governor": [50, 3_000_000_000]}
    return day


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names_and_units_are_valid(self):
        metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
        names = [m["name"] for m in metrics + BENCHMARK["workloads"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        for metric in metrics:
            self.assertRegex(metric["unit"], UNIT_RE)
        for metric in BENCHMARK["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)

    def test_workloads_match_runner(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(run.WORKLOADS))

    def test_untraced_run_reports_every_end_to_end_metric(self):
        days = [fake_day(False) for _ in range(3)]
        metrics = run.end_to_end_metrics(days, peak_rss_kb=2048)
        expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         expected)
        self.assertTrue(all(v["value"] > 0 for v in metrics.values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        untraced = [fake_day(False), fake_day(False)]
        traced = [fake_day(True, wall_s=4.0)]
        metrics = run.per_layer_metrics(untraced, traced,
                                        run.program_literals(), untraced)
        expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                         expected)
        self.assertAlmostEqual(metrics["trace.overhead_ratio"]["value"], 0.5)
        self.assertAlmostEqual(metrics["replay.reload_ratio"]["value"], 1.5)

    def test_removed_zone_reads_absent_not_zero(self):
        literals = run.program_literals() - {"sim.dispatch"}
        metrics = run.per_layer_metrics([fake_day(False)],
                                        [fake_day(True)], literals,
                                        [fake_day(False)])
        self.assertNotIn("simcore.dispatch_s", metrics)
        # Present in the program but not entered on this workload: zero.
        self.assertEqual(metrics["datacenter.refresh_s"]["value"], 0.0)


class SpeedCorrection(unittest.TestCase):
    def test_slowed_host_reads_as_reference_host(self):
        # A day run at half speed takes twice as long and so does the
        # calibration kernel around it: the corrected times are equal.
        fast = fake_day(True)
        slow = fake_day(True, calib_s=2 * run.REF_CALIB_S)
        for key in run.TIME_KEYS:
            slow[key] = 2 * fast[key]
        slow["interval_ns"] = [2 * ns for ns in fast["interval_ns"]]
        slow["zones"] = [[n, p, c, 2 * i, 2 * e]
                         for n, p, c, i, e in fast["zones"]]
        slow["dispatch"] = {k: [c, 2 * ns]
                            for k, (c, ns) in fast["dispatch"].items()}
        got, want = run.corrected(slow), run.corrected(fast)
        for key in run.TIME_KEYS:
            self.assertAlmostEqual(got[key], want[key])
        for g, w in zip(got["interval_ns"] + got["zones"][0][3:],
                        want["interval_ns"] + want["zones"][0][3:]):
            self.assertAlmostEqual(g, w)
        self.assertAlmostEqual(got["dispatch"]["idle-governor"][1],
                               want["dispatch"]["idle-governor"][1])
        self.assertAlmostEqual(run.host_rate([got]), run.host_rate([fast]))

    def test_raw_rate_is_reported_uncorrected(self):
        day = fake_day(False, wall_s=4.0, calib_s=2 * run.REF_CALIB_S)
        metrics = run.per_layer_metrics([run.corrected(day)],
                                        [run.corrected(fake_day(True))],
                                        run.program_literals(), [day])
        self.assertAlmostEqual(metrics["host.raw_sim_host_s_per_s"]["value"],
                               100 * 86400.0 / 4.0)
        self.assertAlmostEqual(metrics["host.calib_ms"]["value"],
                               2e3 * run.REF_CALIB_S)
        self.assertAlmostEqual(metrics["trace.untraced_sim_host_s_per_s"]
                               ["value"], 100 * 86400.0 / 2.0)


class ZoneSums(unittest.TestCase):
    def test_self_and_outermost_inclusive(self):
        zones = fake_day(True)["zones"]
        cycle = ("mgmt.cycle", "mgmt.hier_cycle")
        self.assertEqual(run.zone_sum(zones, "self", cycle), 3_000_000)
        # The nested hier_cycle is inside mgmt.cycle: counted once.
        self.assertEqual(run.zone_sum(zones, "inclusive", cycle), 9_000_000)
        self.assertEqual(run.zone_sum(zones, "calls", cycle), 96)
        self.assertEqual(run.zone_sum(zones, "self", ("migration.",)), 1_400)


class Percentiles(unittest.TestCase):
    def test_nearest_rank_never_exceeds_observed_max(self):
        rng = random.Random(7)
        for n in (1, 2, 9, 10, 287, 1000):
            samples = [rng.lognormvariate(0, 2) for _ in range(n)]
            for pct in (50, 95, 99, 99.9, 100):
                value = run.nearest_rank(samples, pct)
                self.assertLessEqual(value, max(samples))
                self.assertIn(value, samples)

    def test_nearest_rank_values(self):
        samples = list(range(1, 101))
        self.assertEqual(run.nearest_rank(samples, 50), 50)
        self.assertEqual(run.nearest_rank(samples, 95), 95)
        self.assertEqual(run.nearest_rank([5, 1, 3], 50), 3)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.golden = run.load_golden()

    def test_golden_days_pass(self):
        reference = self.golden["workloads"]["trace_replay"]
        days = [fake_day(False, reference) for _ in range(4)]
        self.assertEqual(run.count_failures(days, reference), 0)

    def test_perturbed_golden_value_is_a_failure(self):
        reference = self.golden["workloads"]["consolidation_day"]
        days = [fake_day(False, reference) for _ in range(4)]
        for key in run.STAT_KEYS:
            perturbed = copy.deepcopy(reference)
            perturbed[key] = perturbed[key] * (1 + 1e-12) + 1e-12
            self.assertEqual(run.count_failures(days, perturbed), 4, key)

    def test_event_count_is_not_checked(self):
        reference = self.golden["workloads"]["governor_fleet"]
        day = fake_day(False, reference)
        day["events"] = 1
        self.assertEqual(run.count_failures([day], reference), 0)

    def test_golden_covers_every_workload_and_statistic(self):
        for program, _, _ in run.WORKLOADS.values():
            self.assertEqual(set(self.golden["workloads"][program]),
                             set(run.STAT_KEYS))


if __name__ == "__main__":
    unittest.main()
