"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

They check the self-time arithmetic on synthetic spans, that the counting
wrapper counts a toy function exactly, that BENCHMARK.json names exactly the
metrics the harness reports, that pass times are calibrated by the reference
times around them, and that one traced pass of each workload gives
spans to every layer that workload should move and none to the layers it
should leave alone.  The last test runs each workload once, about 20 s.
"""

import json
import unittest
from collections import defaultdict
from unittest import mock

import numpy as np

import run

workloads, tracing = run.load_program()
from disciter import maps  # noqa: E402  (importable only after load_program)

# Per workload: metrics that must be nonzero after one traced pass, and
# metrics that must stay zero because the workload does no such work.
MOVES = {
    "accept": ["acceptance.c05_s", "acceptance.c09_s", "maps.compositions",
               "maps.blackbox_self_s", "harmonic.walk_steps", "harmonic.wos_self_s",
               "harmonic.ns_per_walk_step_0seg", "harmonic.ns_per_walk_step_1seg",
               "harmonic.arc_calls", "hypgeo.points", "hypgeo.self_s", "domains.calls",
               "domains.self_s", "semiflow.self_s", "qgeo.pairs"],
    "blackbox": ["maps.compositions", "maps.compositions_needed", "maps.ns_per_composition",
                 "maps.blackbox_self_s", "qgeo.pairs", "hypgeo.points",
                 "hypgeo.dist_disk_ns_per_point", "rates.self_s", "util.json_bytes",
                 "cli.self_s"],
    "wos": ["harmonic.walks", "harmonic.walk_steps", "harmonic.wos_self_s",
            "harmonic.distance_ns_per_point_segment", "harmonic.ns_per_walk_step_1seg",
            "harmonic.ns_per_walk_step_3seg", "harmonic.ns_per_walk_step_48seg",
            "cli.self_s"],
    "charted-sweep": ["maps.charted_self_s", "maps.charted_ns_per_index",
                      "maps.saturated_points", "semiflow.self_s", "semiflow.ns_per_t",
                      "slope.self_s", "rates.self_s", "opnorm.self_s", "qgeo.pairs",
                      "qgeo.pairs_per_s", "qgeo.self_s", "harmonic.arc_calls",
                      "harmonic.arc_quad_us", "util.csv_rows", "util.csv_us_per_row",
                      "util.json_bytes", "util.svg_us", "util.bytes_written",
                      "util.write_self_s", "cli.self_s"],
}
IDLE = {
    "accept": [],
    "blackbox": ["harmonic.walks", "harmonic.arc_calls", "maps.charted_self_s"],
    "wos": ["maps.compositions", "maps.blackbox_self_s", "maps.charted_self_s"],
    "charted-sweep": ["maps.compositions", "maps.blackbox_self_s", "harmonic.walks"],
}


def traced_pass(workload):
    jobs = workloads.build(workload, workloads.DEFAULT_SEED)
    tally = run.Tally(workloads.load_digests())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, records = run.run_pass(jobs, tally, tracer)
    finally:
        tracer.uninstall()
    counts = defaultdict(int)
    for r in records:
        for k, v in r["counts"].items():
            counts[k] += v
    metrics = tracing.layer_metrics(tracer.spans, tracing.self_times(tracer.spans), counts)
    return tally, metrics, tracer.spans


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = [
            ["a", 0, 100, -1, 0, None],
            ["b", 10, 30, 0, 0, None],
            ["c", 20, 50, 0, 0, None],   # overlaps b: together they cover 10..50
            ["d", 25, 35, 2, 0, None],   # grandchild: subtracted from c only
            ["e", 90, 120, 0, 0, None],  # leaves a at 100: only 90..100 counts
        ]
        self.assertEqual(tracing.self_times(spans), [50, 20, 20, 10, 30])

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(tracing.self_times([["a", 5, 9, -1, 0, None]]), [4])


class Counting(unittest.TestCase):
    def test_toy_function_counts_points(self):
        tracer = tracing.Tracer()
        square = tracer.counting(lambda z: z * z)
        for _ in range(7):
            square(0.5)
        square(np.zeros(5))
        self.assertEqual(tracer.counts["maps.compositions"], 12)

    def test_blackbox_orbit_from_wrapped_constructor(self):
        original = maps.iterate
        tracer = tracing.Tracer()
        tracer.install()
        try:
            f = maps.custom_map(lambda z: 0.5 * z + 0.25)
            maps.iterate(f, 0.0, 1000).disc_point(np.array([10, 1000]))
            tracer.end_job()
        finally:
            tracer.uninstall()
        self.assertIs(maps.iterate, original)
        self.assertEqual(tracer.counts["maps.compositions"], 1000)
        self.assertEqual(tracer.counts["maps.compositions_needed"], 1000)


class Reporting(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        reported = set(tracing.layer_metrics([], [], defaultdict(int)))
        reported |= {"cli.jobs", "cli.failed", "cli.runtime_warnings", "trace.overhead_frac"}
        self.assertEqual({m["name"] for m in doc["per_layer"]}, reported)
        self.assertEqual([m["name"] for m in doc["end_to_end"]],
                         ["setup_s", "pass_s", "pass_s_tail", "peak_rss_mb"])
        self.assertLessEqual({w["name"] for w in doc["workloads"]}, set(run.WORKLOAD_NAMES))

    def test_tail_has_ten_passes_beyond_it_and_is_never_below_the_median(self):
        self.assertEqual(run.tail(list(range(100, 0, -1))), (90, 90.0))
        self.assertEqual(run.tail(list(range(20, 0, -1))), (10.5, 50.0))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (2.0, 50.0))


class Calibration(unittest.TestCase):
    def test_each_pass_is_scaled_by_the_references_around_it(self):
        refs = iter([0.25, 0.125, 0.5])
        with mock.patch.object(run, "reference_seconds", lambda: next(refs)), \
                mock.patch.object(run, "run_pass", lambda jobs, tally, tracer: (1.0, [])), \
                mock.patch.object(run, "REF_EVERY_S", 0.0):
            raw, calibrated, _ = run.measure([], None, 60.0, max_passes=2)
        self.assertEqual(raw, [1.0, 1.0])
        quiet = run.REF_QUIET_S
        self.assertEqual(calibrated, [quiet * 2.0 / 0.375, quiet * 2.0 / 0.625])


class Layers(unittest.TestCase):
    def test_each_workload_moves_its_layers_and_only_those(self):
        for workload in run.WORKLOAD_NAMES:
            with self.subTest(workload=workload):
                tally, metrics, spans = traced_pass(workload)
                self.assertEqual(tally.failed, 0, tally.messages)
                for name in MOVES[workload]:
                    self.assertGreater(metrics[name], 0, name)
                for name in IDLE[workload]:
                    self.assertEqual(metrics[name], 0, name)
                if workload == "wos":
                    self.assertFalse([s for s in spans if s[0].startswith("maps.")])


if __name__ == "__main__":
    unittest.main()
