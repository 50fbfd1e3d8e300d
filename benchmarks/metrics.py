"""Metric derivation: span lists to per-layer metrics, plus small statistics.

Pure standard library, so run.py never imports numpy and the
self-tests run without the program. A span is ``[name, start, end, parent]``
with ``parent`` the index of the enclosing span in the same process, or -1.
"""

from __future__ import annotations

import statistics

# metric name -> (kind, source, unit)
#   "s"     summed wall time of the outermost spans named ``source``
#   "self"  summed self time (duration minus child spans) of spans in ``source``
#   "count" a counter recorded at the layer boundary
#   "ratio" counter ``source[0]`` divided by its base counter ``source[1]``
SPAN_METRICS = {
    "encoder.train_forward.s": ("s", "encoder.train_forward", "s"),
    "encoder.train_forward.rows": ("count", "encoder.train_forward.rows", "count"),
    "encoder.backward.s": ("s", "encoder.backward", "s"),
    "encoder.adam_step.s": ("s", "encoder.adam_step", "s"),
    "encoder.teacher_forward.s": ("s", "encoder.teacher_forward", "s"),
    "encoder.teacher_forward.rows": ("count", "encoder.teacher_forward.rows", "count"),
    "continual.teacher_inputs": ("count", "continual.teacher_inputs", "count"),
    "continual.teacher_rows_per_input": (
        "ratio", ("encoder.teacher_forward.rows", "continual.teacher_inputs"), "1"),
    "encoder.eval_forward.s": ("s", "encoder.eval_forward", "s"),
    "encoder.eval_forward.rows": ("count", "encoder.eval_forward.rows", "count"),
    "encoder.snapshot_io.s": ("s", "encoder.snapshot_io", "s"),
    "losses.ranking_distill.s": ("s", "losses.ranking_distill", "s"),
    "losses.ranking_distill.n3": ("count", "losses.ranking_distill.n3", "count"),
    "losses.distribution_distill.s": ("s", "losses.distribution_distill", "s"),
    "losses.batch_hard_triplet.s": ("s", "losses.batch_hard_triplet", "s"),
    "losses.combined.self_s": ("self", ("losses.combined",), "s"),
    "losses.valid_anchors": ("count", "losses.valid_anchors", "count"),
    "losses.active_fraction": ("ratio", ("losses.active_triplets", "losses.valid_anchors"), "1"),
    "continual.first_step.s": ("s", "continual.first_step", "s"),
    "continual.later_steps.s": ("s", "continual.later_steps", "s"),
    "continual.loop.self_s": ("self", ("continual.first_step", "continual.later_steps"), "s"),
    "continual.batch_relation.s": ("s", "continual.batch_relation", "s"),
    "continual.update_buffer.s": ("s", "continual.update_buffer", "s"),
    "continual.batches": ("count", "continual.batches", "count"),
    "data.generate_domain.s": ("s", "data.generate_domain", "s"),
    "data.generate_domain.scans": ("count", "data.generate_domain.scans", "count"),
    "data.save_corpus.s": ("s", "data.save_corpus", "s"),
    "data.load_corpus.s": ("s", "data.load_corpus", "s"),
    "data.load_corpus.scans": ("count", "data.load_corpus.scans", "count"),
    "evaluation.protocol.s": ("s", "evaluation.protocol", "s"),
    "evaluation.retrieval.self_s": (
        "self", ("evaluation.protocol", "evaluation.retrieval"), "s"),
    "evaluation.queries": ("count", "evaluation.queries", "count"),
    "evaluation.excluded": ("count", "evaluation.excluded", "count"),
    "cli.import_s": ("s", "cli.import", "s"),
    "cli.verb.self_s": ("self", ("cli.verb",), "s"),
}


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        kids = [(max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]]
        out.append((end - start) - _covered(kids))
    return out


def _outermost(spans, i) -> bool:
    name, parent = spans[i][0], spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def layer_metrics(processes) -> dict:
    """Per-layer metrics summed over the traced processes of one workload run.

    ``processes`` holds one ``{"spans", "counts"}`` export per process.
    Returns ``{name: {"value", "unit"}}`` for every name in SPAN_METRICS; a
    layer that did not run reads 0, and a ratio whose base is 0 reads 0.
    """
    totals, selfs, counts = {}, {}, {}
    for proc in processes:
        spans = proc["spans"]
        for i, ((name, start, end, _), own) in enumerate(zip(spans, self_times(spans))):
            if _outermost(spans, i):
                totals[name] = totals.get(name, 0.0) + (end - start)
            selfs[name] = selfs.get(name, 0.0) + own
        for key, value in proc["counts"].items():
            counts[key] = counts.get(key, 0) + value
    out = {}
    for metric, (kind, source, unit) in SPAN_METRICS.items():
        if kind == "s":
            value = totals.get(source, 0.0)
        elif kind == "self":
            value = sum(selfs.get(name, 0.0) for name in source)
        elif kind == "count":
            value = counts.get(source, 0)
        else:
            num, base = (counts.get(key, 0) for key in source)
            value = num / base if base else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def top_level_seconds(processes) -> float:
    """Summed duration of the spans that have no parent, over all processes."""
    return sum(end - start for proc in processes
               for _, start, end, parent in proc["spans"] if parent < 0)


def tally(ops) -> tuple:
    """(attempted, failed) over operation outcomes ``{"op", "ok", ...}``."""
    return len(ops), sum(1 for op in ops if not op["ok"])


def failed_share(ops) -> float:
    attempted, failed = tally(ops)
    return failed / attempted if attempted else 1.0


def median(values) -> float:
    return float(statistics.median(values))
