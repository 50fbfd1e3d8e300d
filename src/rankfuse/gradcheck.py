"""Central finite-difference gradient checking.

Every analytic gradient in the package funnels through ``check_gradient``:
central differences at eps = 1e-4, relative error below 1e-4 on float64
inputs, with a guard that skips coordinates sitting on hinge/abs kinks
(where the two one-sided slopes disagree). A deliberate corruption hook
exists so the harness itself can be shown to catch wrong gradients.
``gradcheck_suite`` runs it on the encoder and on every loss term the method
trains with; ``rankfuse gradcheck`` and acceptance criterion 1 call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .continual import batch_relation
from .data import PairPolicy, PlaceSample, PointScan
from .encoder import (backward, encode, encode_with_cache, flatten_params, init_params,
                      unflatten_params)
from .errors import UsageError
from .losses import (DIVERGENCES, LossToggles, batch_hard_triplet, combined_loss,
                     distribution_distill_loss, ranking_distill_loss, triplet_loss)

DEFAULT_EPS = 1e-4
DEFAULT_TOL = 1e-4


@dataclass
class GradCheckReport:
    name: str
    max_rel_error: float
    checked: int
    skipped_kinks: int
    passed: bool
    worst_index: tuple = ()

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} max_rel_err={self.max_rel_error:.3e} "
            f"checked={self.checked} kinks_skipped={self.skipped_kinks}"
        )


@dataclass
class GradCheckSuite:
    reports: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def lines(self) -> list:
        return [r.line() for r in self.reports]


def check_gradient(
    fn: Callable[[np.ndarray], float],
    grad: np.ndarray,
    x: np.ndarray,
    name: str = "fn",
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
    corrupt: float = 0.0,
) -> GradCheckReport:
    """Compare an analytic gradient against central differences.

    ``fn`` maps a float64 array with the shape of ``x`` to a scalar.
    ``corrupt`` adds a constant to the analytic gradient first (negative
    control; any nonzero value must make the check fail on generic data).
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64) + corrupt
    if grad.shape != x.shape:
        raise UsageError(f"gradient shape {grad.shape} does not match input {x.shape}")
    if eps <= 0 or tol <= 0:
        raise UsageError("eps and tol must be positive")

    max_rel = 0.0
    worst = ()
    checked = 0
    kinks = 0
    base = float(fn(x))
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += eps
        fp = float(fn(xp))
        xm = x.copy()
        xm[idx] -= eps
        fm = float(fn(xm))
        # One-sided slopes disagreeing flags a kink crossing; skip it.
        right = (fp - base) / eps
        left = (base - fm) / eps
        scale_k = max(abs(right), abs(left), 1.0)
        if abs(right - left) > 1e-2 * scale_k:
            kinks += 1
            continue
        numeric = (fp - fm) / (2.0 * eps)
        analytic = float(grad[idx])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        checked += 1
        if rel > max_rel:
            max_rel = rel
            worst = idx
    if checked == 0:
        raise UsageError(f"{name}: every coordinate sat on a kink; nothing checked")
    return GradCheckReport(
        name=name,
        max_rel_error=max_rel,
        checked=checked,
        skipped_kinks=kinks,
        passed=max_rel < tol,
        worst_index=worst,
    )


def _random_relation(rng, n):
    samples = []
    for i in range(n):
        pose = rng.uniform(0.0, 100.0, 2)
        pts = rng.uniform(-1.0, 1.0, (4, 3))
        samples.append(
            PlaceSample(scan=PointScan(points=pts), pose=pose, domain_id=0, sample_id=i)
        )
    return batch_relation(samples, PairPolicy())


def gradcheck_suite(seed: int, batch: int, dim: int, points: int, corrupt: float = 0.0):
    """FD-verify the encoder and every loss; ``corrupt`` is a negative control."""
    rng = np.random.Generator(np.random.PCG64(seed))
    suite = GradCheckSuite()
    hidden = 6

    # Encoder: scalar probe <W, E(params)> exercises every parameter path.
    scans = rng.uniform(-1.0, 1.0, (batch, points, 3))
    params = init_params(seed, hidden, dim)
    probe = rng.normal(0.0, 1.0, (batch, dim))
    for normalize in (False, True):
        e, cache = encode_with_cache(params, scans, normalize)
        g = backward(params, scans, probe, normalize, cache=cache)
        suite.reports.append(
            check_gradient(
                lambda v: float(
                    np.sum(probe * encode(unflatten_params(v, hidden, dim), scans, normalize))
                ),
                flatten_params(g),
                flatten_params(params),
                name=f"encoder[normalize={normalize}]",
                corrupt=corrupt,
            )
        )

    # Triplet margin loss on a generic triple.
    tri = rng.normal(0.0, 1.0, (3, dim))
    res = triplet_loss(tri[0], tri[1], tri[2], margin=2.5)
    suite.reports.append(
        check_gradient(
            lambda v: triplet_loss(v[0], v[1], v[2], margin=2.5).value,
            res.grad_new,
            tri,
            name="triplet",
            corrupt=corrupt,
        )
    )

    # Batch-hard triplet over a random relation.
    e = rng.normal(0.0, 1.0, (batch, dim))
    relation = _random_relation(rng, batch)
    bh = batch_hard_triplet(e, relation, margin=0.5)
    suite.reports.append(
        check_gradient(
            lambda v: batch_hard_triplet(v, relation, margin=0.5).loss.value,
            bh.loss.grad_new,
            e,
            name="batch_hard_triplet",
            corrupt=corrupt,
        )
    )

    # Ranking distillation against a fixed old batch.
    e_old = rng.normal(0.0, 1.0, (batch, dim))
    e_new = rng.normal(0.0, 1.0, (batch, dim))
    rkd = ranking_distill_loss(e_old, e_new, tau=0.3)
    suite.reports.append(
        check_gradient(
            lambda v: ranking_distill_loss(e_old, v, tau=0.3).value,
            rkd.grad_new,
            e_new,
            name="ranking_distill",
            corrupt=corrupt,
        )
    )

    # Distribution distillation, all three divergences.
    for div in DIVERGENCES:
        dkd = distribution_distill_loss(e_old, e_new, temp=1.0, divergence=div)
        suite.reports.append(
            check_gradient(
                lambda v, d=div: distribution_distill_loss(e_old, v, temp=1.0, divergence=d).value,
                dkd.grad_new,
                e_new,
                name=f"distribution_distill[{div}]",
                corrupt=corrupt,
            )
        )

    # Combined objective with every term on.
    comb = combined_loss(
        e_old, e_new, relation, margin=0.5, rank_temp=0.3, dist_temp=1.0, lam=0.5,
        toggles=LossToggles(),
    )
    suite.reports.append(
        check_gradient(
            lambda v: combined_loss(
                e_old, v, relation, margin=0.5, rank_temp=0.3, dist_temp=1.0, lam=0.5,
                toggles=LossToggles(),
            ).loss.value,
            comb.loss.grad_new,
            e_new,
            name="combined",
            corrupt=corrupt,
        )
    )
    return suite
