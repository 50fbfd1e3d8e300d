"""Self-tests for the benchmark's metric derivation and tracer.

    python3 benchmarks/selftest.py

Standard library only: synthetic span lists, no rankfuse import. The
end-to-end counterpart is ``python3 benchmarks/run.py --quick``, which runs
every workload once at reduced size and checks every named metric is there.
"""

from __future__ import annotations

import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
from spans import BOOKKEEPING, Tracer  # noqa: E402


def proc(spans, counts=None):
    return {"spans": spans, "counts": counts or {}}


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            ["cli.verb", 0.0, 10.0, -1],
            ["continual.later_steps", 1.0, 4.0, 0],
            ["encoder.teacher_forward", 2.0, 3.0, 1],
            ["evaluation.protocol", 5.0, 6.0, 0],
        ]
        self.assertEqual(metrics.self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0]]
        self.assertEqual(metrics.self_times(spans)[0], 5.0)

    def test_child_clipped_to_parent(self):
        spans = [["a", 0.0, 2.0, -1], ["b", 1.0, 5.0, 0]]
        self.assertEqual(metrics.self_times(spans)[0], 1.0)

    def test_named_self_metrics_sum_over_sources(self):
        spans = [
            ["continual.first_step", 0.0, 3.0, -1],
            ["encoder.train_forward", 0.5, 2.5, 0],
            ["continual.later_steps", 3.0, 7.0, -1],
            ["losses.combined", 4.0, 5.0, 2],
        ]
        out = metrics.layer_metrics([proc(spans)])
        self.assertEqual(out["continual.loop.self_s"]["value"], 1.0 + 3.0)
        self.assertEqual(out["losses.combined.self_s"]["value"], 1.0)

    def test_recursive_span_counts_once_in_total(self):
        spans = [["encoder.snapshot_io", 0.0, 4.0, -1], ["encoder.snapshot_io", 1.0, 2.0, 0]]
        out = metrics.layer_metrics([proc(spans)])
        self.assertEqual(out["encoder.snapshot_io.s"]["value"], 4.0)

    def test_bookkeeping_is_nobody_s_self_time(self):
        spans = [["cli.verb", 0.0, 4.0, -1], ["encoder.eval_forward", 0.0, 1.0, 0],
                 [BOOKKEEPING, 1.0, 3.0, 0]]
        out = metrics.layer_metrics([proc(spans)])
        self.assertEqual(out["cli.verb.self_s"]["value"], 1.0)
        self.assertEqual(out["encoder.eval_forward.s"]["value"], 1.0)

    def test_top_level_seconds(self):
        spans = [["cli.import", 0.0, 1.0, -1], ["cli.verb", 1.0, 5.0, -1], ["x", 2.0, 3.0, 1]]
        self.assertEqual(metrics.top_level_seconds([proc(spans), proc(spans)]), 10.0)


class Ratios(unittest.TestCase):
    def test_ratio_carries_its_base_and_sums_over_processes(self):
        a = proc([], {"encoder.teacher_forward.rows": 30, "continual.teacher_inputs": 2})
        b = proc([], {"encoder.teacher_forward.rows": 34, "continual.teacher_inputs": 2})
        out = metrics.layer_metrics([a, b])
        self.assertEqual(out["continual.teacher_rows_per_input"]["value"], 16.0)
        self.assertEqual(out["continual.teacher_inputs"]["value"], 4)
        self.assertEqual(out["encoder.teacher_forward.rows"]["value"], 64)

    def test_zero_base_reads_zero_with_its_base(self):
        out = metrics.layer_metrics([proc([], {"losses.active_triplets": 0})])
        self.assertEqual(out["losses.active_fraction"]["value"], 0.0)
        self.assertEqual(out["losses.valid_anchors"]["value"], 0)

    def test_every_metric_present_when_nothing_ran(self):
        out = metrics.layer_metrics([])
        self.assertEqual(set(out), set(metrics.SPAN_METRICS))
        self.assertTrue(all(v["value"] == 0 for v in out.values()))


class Operations(unittest.TestCase):
    def test_failed_operations_are_counted(self):
        ops = [{"op": "gen-data", "ok": True}, {"op": "run", "ok": False},
               {"op": "eval", "ok": True}]
        self.assertEqual(metrics.tally(ops), (3, 1))
        self.assertAlmostEqual(metrics.failed_share(ops), 1 / 3)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(metrics.failed_share([]), 1.0)


class TracerBehaviour(unittest.TestCase):
    def setUp(self):
        self.module = types.ModuleType("fake_layer")
        self.module.work = lambda x: x * 2
        sys.modules["fake_layer"] = self.module

    def tearDown(self):
        del sys.modules["fake_layer"]

    def test_absent_targets_are_reported_not_fatal(self):
        tracer = Tracer()
        tracer.install((
            ("fake_layer", "work", "layer.work", None),
            ("fake_layer", "retrieve", "layer.retrieve", None),
            ("no_such_module_here", "encode", "layer.encode", None),
        ))
        self.assertEqual(tracer.absent, ["fake_layer.retrieve", "no_such_module_here.encode"])
        self.assertEqual(self.module.work(3), 6)
        self.assertEqual([s[0] for s in tracer.spans], ["layer.work"])

    def test_counts_run_in_a_sibling_bookkeeping_span(self):
        tracer = Tracer()
        seen = []
        tracer.install((("fake_layer", "work", "layer.work",
                         lambda t, args, kwargs, result: (t.add("layer.rows", args[0]),
                                                          seen.append(result))),))
        tracer.call("outer", self.module.work, 5)
        names = [(s[0], s[3]) for s in tracer.spans]
        self.assertEqual(names, [("outer", -1), ("layer.work", 0), (BOOKKEEPING, 0)])
        self.assertEqual(tracer.counts, {"layer.rows": 5})
        self.assertEqual(seen, [10])

    def test_counter_that_no_longer_fits_is_reported_not_fatal(self):
        tracer = Tracer()
        tracer.install((("fake_layer", "work", "layer.work",
                         lambda t, args, kwargs, result: result.cells),))
        self.assertEqual(self.module.work(2), 4)
        self.assertEqual(tracer.absent, ["layer.work counter (AttributeError)"])

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            tracer.call("layer.boom", boom)
        self.assertIsNotNone(tracer.spans[0][2])
        tracer.call("after", lambda: None)
        self.assertEqual(tracer.spans[1][3], -1)


if __name__ == "__main__":
    unittest.main()
