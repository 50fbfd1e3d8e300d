"""In-memory span tracer for the traced benchmark run.

The tracer wraps public rankfuse functions from outside the package, at the
module attribute their caller looks up: ``rankfuse.continual.encode`` is the
frozen teacher, ``rankfuse.evaluation.encode`` the eval forward pass. Each
call records one span ``[name, start, end, parent]``; counters are updated
at the same boundaries. Counter bookkeeping runs right after the call, in a
sibling span of its own (``trace.bookkeeping``), so it inflates neither the
layer's time nor its caller's self time.

A target that no longer exists (an API removed by a refactor) is listed in
``absent`` and skipped, and so is a counter that no longer fits its call;
the run goes on.
"""

from __future__ import annotations

import importlib
import time

BOOKKEEPING = "trace.bookkeeping"


def _rows(x) -> int:
    return len(getattr(x, "vectors", x))


def _count_rows(key):
    def count(tracer, args, kwargs, result):
        tracer.add(key, _rows(args[1] if len(args) > 1 else kwargs["scans"]))

    return count


def _count_teacher(tracer, args, kwargs, result):
    scans = args[1] if len(args) > 1 else kwargs["scans"]
    tracer.add("encoder.teacher_forward.rows", len(scans))
    # Distinct inputs are counted per continual step, like the teacher sees them.
    step = tracer.enclosing("continual.later_steps")
    for row in scans:
        key = (step, hash(row.tobytes()))
        if key not in tracer.seen:
            tracer.seen.add(key)
            tracer.add("continual.teacher_inputs", 1)


def _count_len(key):
    def count(tracer, args, kwargs, result):
        tracer.add(key, len(result))

    return count


def _count_rkd(tracer, args, kwargs, result):
    tracer.add("losses.ranking_distill.n3", _rows(args[0]) ** 3)


def _count_triplets(tracer, args, kwargs, result):
    valid = int(getattr(result, "valid_anchors", 0))
    tracer.add("losses.valid_anchors", valid)
    tracer.add("losses.active_triplets", round(getattr(result, "active_fraction", 0.0) * valid))


def _count_batches(tracer, args, kwargs, result):
    tracer.add("continual.batches", 1)


def _count_recall(tracer, args, kwargs, result):
    excluded = int(result.excluded)
    tracer.add("evaluation.queries", int(result.evaluated) + excluded)
    tracer.add("evaluation.excluded", excluded)


def _count_protocol(tracer, args, kwargs, result):
    for cell in result.cells:
        tracer.add("evaluation.queries", int(cell["evaluated"]) + int(cell["excluded"]))
        tracer.add("evaluation.excluded", int(cell["excluded"]))


# (module, attribute, span name, counter). Order matters only for readability.
TARGETS = (
    ("rankfuse.continual", "encode_with_cache", "encoder.train_forward",
     _count_rows("encoder.train_forward.rows")),
    ("rankfuse.continual", "encode", "encoder.teacher_forward", _count_teacher),
    ("rankfuse.continual", "backward", "encoder.backward", None),
    ("rankfuse.continual", "adam_step", "encoder.adam_step", None),
    ("rankfuse.evaluation", "encode", "encoder.eval_forward",
     _count_rows("encoder.eval_forward.rows")),
    ("rankfuse.continual", "save_snapshot", "encoder.snapshot_io", None),
    ("rankfuse.cli", "load_snapshot", "encoder.snapshot_io", None),
    ("rankfuse.continual", "combined_loss", "losses.combined", _count_batches),
    ("rankfuse.losses", "ranking_distill_loss", "losses.ranking_distill", _count_rkd),
    ("rankfuse.losses", "distribution_distill_loss", "losses.distribution_distill", None),
    ("rankfuse.losses", "batch_hard_triplet", "losses.batch_hard_triplet", _count_triplets),
    ("rankfuse.continual", "train_first_step", "continual.first_step", None),
    ("rankfuse.continual", "train_continual_step", "continual.later_steps", None),
    ("rankfuse.continual", "batch_relation", "continual.batch_relation", None),
    ("rankfuse.continual", "update_buffer", "continual.update_buffer", None),
    ("rankfuse.continual", "generate_domain", "data.generate_domain",
     _count_len("data.generate_domain.scans")),
    ("rankfuse.cli", "generate_domain", "data.generate_domain",
     _count_len("data.generate_domain.scans")),
    ("rankfuse.cli", "save_corpus", "data.save_corpus", None),
    ("rankfuse.cli", "load_corpus", "data.load_corpus",
     _count_len("data.load_corpus.scans")),
    ("rankfuse.cli", "evaluate_protocol", "evaluation.protocol", _count_protocol),
    ("rankfuse.cli", "build_index", "evaluation.retrieval", None),
    ("rankfuse.cli", "recall_at_n", "evaluation.retrieval", _count_recall),
    ("rankfuse.evaluation", "retrieve", "evaluation.retrieval", None),
)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.absent = []
        self.seen = set()
        self._stack = []

    def enclosing(self, name):
        for idx in reversed(self._stack):
            if self.spans[idx][0] == name:
                return idx
        return -1

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span, then ``count`` in a sibling bookkeeping span."""
        rec = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(rec)
        if count is not None:
            inner = self._open(BOOKKEEPING)
            try:
                count(self, args, kwargs, result)
            except (AttributeError, KeyError, TypeError, IndexError) as exc:
                # The call's arguments or result changed shape: keep the span, drop the count.
                broken = f"{name} counter ({exc.__class__.__name__})"
                if broken not in self.absent:
                    self.absent.append(broken)
            finally:
                self._close(inner)
        return result

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        """Patch every target that exists; record the others as absent."""
        for module_name, attr, name, count in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, count))

    def export(self):
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}
