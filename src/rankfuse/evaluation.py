"""Retrieval evaluation: exact nearest neighbor, Recall@N, the step-by-task
recall matrix, the forgetting score, and fused old+new retrieval.

Retrieval is brute force, distance ties broken by lowest sample_id. Distances,
for embeddings, for the positive-radius pose test and for training pair labels
alike, sum the squared column differences in column order from zero, then take
the square root: scipy's ``cdist`` euclidean bits without scipy. One matrix product screens the
database; only rows that can reach a query's top n get the exact distance.
The top n is found by selection: rows closer than the n-th smallest distance
are in, and rows at exactly that distance fill the remaining slots. Only when
those tied rows outnumber the slots and disagree on being true positives does
that query fall back to a (distance, lowest sample_id) lexsort. Queries run in
blocks sized by a fixed element budget; every step decides each query from its
own row, so the blocks give the bits of one whole-matrix pass.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .encoder import encode
from .errors import UsageError, check, write_atomic

RESULTS_FILE = "results.json"
RECALL_CSV = "recall_matrix.csv"
# Query rows per distance chunk. On a 2-vCPU Xeon, 1000 x 1000 at D = 32 and
# 64, chunks of 64 rows timed fastest, 32 within 10% and 16 or 128 slower.
_DIST_ROWS = 64
# (query, database) pairs per query block of recall_at_n: each of the block's
# (rows, database) matrices holds at most this many elements, 384 KB of
# float64, so a block's matrices fit a 2 MB L2. On a 2-vCPU Xeon, a fused
# 1000 x 1000 eval (D = 64, Recall@5) peaked at 34.9 MB with 131,072, 33.65
# with 65,536, 33.43 with 49,152 and 33.36 with 32,768, where encoding sets
# the peak; its recall_at_n took 34.1, 29.6, 31.3 and 37.0 ms.
_QUERY_BUDGET = 49_152


@dataclass
class RecallOutcome:
    percent: float
    evaluated: int
    excluded: int  # queries with no true positive anywhere in the database


@dataclass
class ForgettingReport:
    score: float
    per_task_drops: list


FORGETTING_MODES = ("printed", "from_t")


def embed(snapshots, scans) -> np.ndarray:
    """Embed scans with each snapshot; two snapshots concatenate (fusion).

    ``scans`` is what ``encode`` reads a chunk at a time: a list of (P, 3)
    scans, or a corpus's ``ScanReader``, whose files each snapshot reads again.
    """
    return np.concatenate([encode(s.params, scans, normalize=s.normalize) for s in snapshots], axis=1)


def recall_at_n(
    db_emb, db_poses, db_ids, q_emb, q_poses, pos_test: float, n: int
) -> RecallOutcome:
    """Percent of queries whose top-n contains a sample within pos_test meters.

    Database rows rank by embedding distance, exact ties by lowest sample id.
    Queries with no true positive anywhere in the database are excluded from
    the denominator and reported in ``excluded``. Queries run in blocks of
    about ``_QUERY_BUDGET`` (query, database) pairs, so memory is bounded by a
    block, not by the database; each query's hit depends on that query alone.
    """
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if len(q_emb) == 0:
        raise UsageError("empty query split")
    if not (np.all(np.isfinite(db_emb)) and np.all(np.isfinite(q_emb))):
        raise UsageError("embeddings must be finite")
    q = np.asarray(q_emb, dtype=np.float64)
    db = np.asarray(db_emb, dtype=np.float64)
    q_poses, db_ids = np.asarray(q_poses), np.asarray(db_ids)
    top = min(n, len(db))
    rows = max(1, _QUERY_BUDGET // max(len(db), 1))
    evaluated = hits = 0
    for lo in range(0, len(q), rows):
        is_pos = euclidean(q_poses[lo : lo + rows], db_poses) < pos_test
        evaluated += int(is_pos.any(axis=1).sum())
        hits += _block_hits(q[lo : lo + rows], db, db_ids, is_pos, top)
    if evaluated == 0:
        raise UsageError("every query lacked a true positive in the database")
    return RecallOutcome(
        percent=100.0 * hits / evaluated, evaluated=evaluated, excluded=len(q) - evaluated
    )


def _block_hits(q, db, db_ids, is_pos, top: int) -> int:
    """How many queries of a block find a true positive (``is_pos``) in their top."""
    cols = _screen(q, db, top)  # holds every row that can reach a query's top
    dists = euclidean(q, db, cols)
    is_pos = np.take_along_axis(is_pos, cols, axis=1)
    # Rows closer than the top-th smallest distance are in the top; rows at
    # exactly that distance fill the remaining (>= 1) slots.
    kth = np.partition(dists, top - 1, axis=1)[:, top - 1 : top]
    closer = dists < kth
    tied = dists == kth
    n_tied = tied.sum(axis=1)
    tied_pos = (tied & is_pos).sum(axis=1)
    all_in = top - closer.sum(axis=1) == n_tied
    hit = (closer & is_pos).any(axis=1) | ((tied_pos > 0) & (all_in | (tied_pos == n_tied)))
    # Some tied rows are positive, some not, and not all fit: the lowest
    # sample ids among them decide, so rank that query's candidates as a whole.
    for i in np.flatnonzero(~hit & (tied_pos > 0)):
        order = np.lexsort((db_ids[cols[i]], dists[i]))[:top]
        hit[i] = is_pos[i, order].any()
    return int(hit.sum())


def _screen(q, db, top: int) -> np.ndarray:
    """Each query's candidate rows: its ``width`` smallest Gram-form squared
    distances, ``width`` being the most rows within 2 ``bound`` of a query's
    top-th. ``bound`` exceeds the Gram form's error plus the exact column sum's
    (with room for sqrt merging sums and for subnormal squares), so every row as
    close as the exact top-th is a candidate; so is NaN or inf (overflow).
    That holds for each query on its own, at any ``width`` as large as the
    query needs, so a block of queries may take the width of its own rows."""
    f = np.finfo(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        nq = np.einsum("ij,ij->i", q, q)
        nd = np.einsum("ij,ij->i", db, db)
        approx = q @ db.T
        approx *= -2.0
        approx += np.add.outer(nq, nd)
        bound = 4 * (q.shape[1] + 4) * (f.eps * (nq + nd.max()) + f.smallest_subnormal)
        part = np.argpartition(approx, top - 1, axis=1)
        kth = np.take_along_axis(approx, part[:, top - 1 : top], axis=1)
        width = np.count_nonzero(~(approx > kth + 2 * bound[:, None]), axis=1).max()
    return part[:, :top] if width == top else np.argpartition(approx, width - 1, axis=1)[:, :width]


def euclidean(a, b, cols=None) -> np.ndarray:
    """Distances from each row of ``a`` to every row of ``b`` (or to rows
    ``cols[i]``), bit-equal to scipy's cdist (euclidean).

    Squared differences add one column at a time, in column order, starting
    from zero; a full matrix takes rows of ``a`` in chunks of ``_DIST_ROWS``."""
    a = np.asarray(a, dtype=np.float64)
    if cols is not None:
        out = np.zeros(cols.shape)
        for k in range(a.shape[1]):
            d = np.subtract(a[:, k : k + 1], b[cols, k])
            out += np.multiply(d, d, out=d)
        return np.sqrt(out, out=out)
    b_cols = np.ascontiguousarray(np.asarray(b, dtype=np.float64).T)
    out = np.zeros((a.shape[0], b_cols.shape[1]))
    diff = np.empty((min(_DIST_ROWS, a.shape[0]), b_cols.shape[1]))
    with np.errstate():  # restores the ufunc buffer size on exit
        # numpy's default buffer copies broadcast rows shorter than itself
        # through it; at the smallest size the (rows, 1) - (m,) subtraction
        # runs in place, which halved this loop at 1000 x 1000.
        np.setbufsize(16)
        for start in range(0, a.shape[0], _DIST_ROWS):
            rows = a[start : start + _DIST_ROWS]
            acc = out[start : start + _DIST_ROWS]
            d = diff[: len(rows)]
            for k, col in enumerate(b_cols):
                np.subtract(rows[:, k : k + 1], col, out=d)
                np.multiply(d, d, out=d)
                np.add(acc, d, out=acc)
    return np.sqrt(out, out=out)


def forgetting_score(recall_matrix: np.ndarray, mode: str = "printed") -> ForgettingReport:
    """Mean drop from each earlier task's best recall to its final recall.

    ``printed`` takes the best over steps 0..t (zero-shot rows included);
    ``from_t`` restricts to steps t..T-2, the conventional reading.
    """
    r = np.asarray(recall_matrix, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise UsageError(f"recall matrix must be square, got {r.shape}")
    t_total = r.shape[0]
    if t_total < 2:
        raise UsageError("forgetting needs at least 2 tasks")
    from .config import ExperimentConfig  # config imports this module

    check(ExperimentConfig, "", {"forgetting_max": mode}, relations=False)
    drops = []
    for t in range(t_total - 1):
        if mode == "printed":
            best = r[: t + 1, t].max()
        else:
            best = r[t : t_total - 1, t].max()
        drops.append(float(best - r[t_total - 1, t]))
    return ForgettingReport(score=float(np.mean(drops)), per_task_drops=drops)


# ---------------------------------------------------------------------------
# Whole-protocol evaluation


@dataclass
class ProtocolEvaluation:
    recall_matrix: np.ndarray  # (T, T), rows = training steps, cols = tasks
    mean_recall_at_1: float
    forgetting: ForgettingReport | None  # None when T < 2
    cells: list  # per (step, task) dicts with counts


def embed_protocol(snapshots, db, query) -> list:
    """Embed the database and query split of each trained task once per snapshot.

    ``db`` and ``query`` hold each domain's database and query split, in
    training order. Returns, for each task t, a (db, query) pair of splits,
    each a (poses, sample ids, rows) triple whose ``rows[l]`` is snapshot l's
    embedding. Single and fused evaluation both read these; fused rows
    concatenate them.
    """
    if not snapshots:
        raise UsageError("protocol run has no snapshots")

    def split(samples):
        poses, ids = np.stack([s.pose for s in samples]), np.array([s.sample_id for s in samples])
        scans = [s.scan.points for s in samples]
        return poses, ids, [embed((snap,), scans) for snap in snapshots]

    return [(split(db[t]), split(query[t])) for t in range(len(snapshots))]


def evaluate_protocol(emb: list, cfg, fusion: bool) -> ProtocolEvaluation:
    """Fill R[l][t] for every training step l and task t, zero-shot included.

    ``emb`` is ``embed_protocol(snapshots, db, query)``; ``cfg`` gives the positive
    radius ``pairs.pos_test`` and ``forgetting_max``. With fusion on, row 0
    uses snapshot 0 alone and row l >= 1 concatenates the step l-1 and step l
    embeddings.
    """
    t_total = len(emb)
    r = np.zeros((t_total, t_total))
    cells = []
    for l in range(t_total):
        steps = (l,) if not fusion or l == 0 else (l - 1, l)
        for t, ((db_poses, db_ids, db_rows), (q_poses, _, q_rows)) in enumerate(emb):
            db_e = np.concatenate([db_rows[i] for i in steps], axis=1)
            q_e = np.concatenate([q_rows[i] for i in steps], axis=1)
            outcome = recall_at_n(db_e, db_poses, db_ids, q_e, q_poses, cfg.pairs.pos_test, 1)
            r[l, t] = outcome.percent
            cells.append(
                {
                    "step": l,
                    "task": t,
                    "recall_at_1": outcome.percent,
                    "evaluated": outcome.evaluated,
                    "excluded": outcome.excluded,
                    "embedding_dim": int(db_e.shape[1]),
                }
            )
    report = forgetting_score(r, mode=cfg.forgetting_max) if t_total >= 2 else None
    return ProtocolEvaluation(
        recall_matrix=r,
        mean_recall_at_1=float(r[t_total - 1].mean()),
        forgetting=report,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# Result serialization (canonical: byte-identical for identical runs)


def _mode_dict(ev: ProtocolEvaluation) -> dict:
    return {
        "recall_matrix": [[float(v) for v in row] for row in ev.recall_matrix],
        "mean_recall_at_1": ev.mean_recall_at_1,
        "forgetting": ev.forgetting.score if ev.forgetting else None,
        "per_task_drops": ev.forgetting.per_task_drops if ev.forgetting else None,
    }


def results_dict(
    single: ProtocolEvaluation, fused: ProtocolEvaluation | None, seed: int, config_digest: str
) -> dict:
    """The results.json layout; the fused evaluation, when there is one, is the headline."""
    headline = fused if fused is not None else single
    d = _mode_dict(headline)
    return {
        "recall_matrix": d["recall_matrix"],
        "mean_recall_at_1": d["mean_recall_at_1"],
        "forgetting": d["forgetting"],
        "per_step_details": {
            "seed": seed,
            "config_digest": config_digest,
            "headline_mode": "fused" if fused is not None else "single",
            "single": _mode_dict(single),
            "fused": _mode_dict(fused) if fused is not None else None,
            "cells": headline.cells,
            "notes": "",
        },
    }


def dump_results(d: dict) -> str:
    """Canonical JSON: sorted keys, no timestamps, newline-terminated."""
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def write_recall_csv(recall_matrix: np.ndarray, task_names, path, digests=None) -> None:
    """Rows = training steps, columns = tasks; ``digests`` as in ``write_atomic``."""
    r = np.asarray(recall_matrix)
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["step"] + list(task_names))
    for l in range(r.shape[0]):
        writer.writerow([l] + [repr(float(v)) for v in r[l]])
    write_atomic(path, text.getvalue(), digests)
