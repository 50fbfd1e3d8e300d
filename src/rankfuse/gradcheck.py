"""Central finite-difference gradient checking.

Every analytic gradient in the package funnels through ``check_gradient``:
central differences at eps = 1e-4, relative error below 1e-4 on float64
inputs, with a guard that skips coordinates sitting on hinge/abs kinks
(where the two one-sided slopes disagree).
``gradcheck_suite`` runs it on the encoder and on every loss term the method
trains with; ``rankfuse gradcheck`` and acceptance criterion 1 call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DIVERGENCES, LossConfig, PairPolicy
from .continual import batch_relation
from .encoder import (backward, encode, encode_with_cache, flatten_params, init_params,
                      unflatten_params)
from .errors import UsageError
from .losses import (batch_hard_triplet, combined_loss, distribution_distill_loss,
                     ranking_distill_loss, triplet_loss)

DEFAULT_EPS = 1e-4
DEFAULT_TOL = 1e-4


@dataclass
class GradCheckReport:
    name: str
    max_rel_error: float
    checked: int
    skipped_kinks: int
    passed: bool

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} max_rel_err={self.max_rel_error:.3e} "
            f"checked={self.checked} kinks_skipped={self.skipped_kinks}"
        )


def check_gradient(
    fn: Callable[[np.ndarray], float],
    grad: np.ndarray,
    x: np.ndarray,
    name: str = "fn",
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> GradCheckReport:
    """Compare an analytic gradient against central differences.

    ``fn`` maps a float64 array with the shape of ``x`` to a scalar.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x.shape:
        raise UsageError(f"gradient shape {grad.shape} does not match input {x.shape}")
    if eps <= 0 or tol <= 0:
        raise UsageError("eps and tol must be positive")

    max_rel = 0.0
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
        max_rel = max(max_rel, rel)
    if checked == 0:
        raise UsageError(f"{name}: every coordinate sat on a kink; nothing checked")
    return GradCheckReport(
        name=name,
        max_rel_error=max_rel,
        checked=checked,
        skipped_kinks=kinks,
        passed=max_rel < tol,
    )


def _random_relation(rng, n):
    """Pair labels of ``n`` rows that alternate between two 4 m squares 100 m
    apart: under ``PairPolicy()`` a row's square-mates are positives (< 10 m)
    and the other square's rows negatives (> 50 m), so with 3 rows or more
    batch-hard mining has valid anchors."""
    # 14 uniforms a row, of which the pose takes 2: the draws that follow,
    # and so the suite's pinned output, depend on the count.
    poses = rng.uniform(0.0, 4.0, (n, 14))[:, :2]
    poses[1::2, 0] += 100.0
    return batch_relation(poses, np.zeros(n, dtype=int), PairPolicy())


def _cases(seed: int, batch: int, dim: int, points: int) -> list:
    """The suite's (name, fn, analytic gradient, input) cases."""
    if batch < 3:
        raise UsageError(f"batch must be >= 3, so that batch-hard mining has an anchor, got {batch}")
    rng = np.random.Generator(np.random.PCG64(seed))
    hidden = 6
    cases = []  # (name, fn, analytic gradient, input)

    # Encoder: scalar probe <W, E(params)> exercises every parameter path.
    scans = rng.uniform(-1.0, 1.0, (batch, points, 3))
    params = init_params(seed, hidden, dim)
    probe = rng.normal(0.0, 1.0, (batch, dim))
    for normalize in (False, True):
        _, cache = encode_with_cache(params, scans, normalize)
        cases.append((
            f"encoder[normalize={normalize}]",
            lambda v, nz=normalize: float(
                np.sum(probe * encode(unflatten_params(v, hidden, dim), scans, nz))
            ),
            flatten_params(backward(params, scans, probe, normalize, cache=cache)),
            flatten_params(params),
        ))

    # Each loss as (name, x -> LossValue, x): a generic triplet, batch-hard
    # mining over a random relation, and the distillation terms and the
    # combined objective (every term on) against a fixed old batch.
    tri = rng.normal(0.0, 1.0, (3, dim))
    e = rng.normal(0.0, 1.0, (batch, dim))
    relation = _random_relation(rng, batch)
    e_old = rng.normal(0.0, 1.0, (batch, dim))
    e_new = rng.normal(0.0, 1.0, (batch, dim))
    combined = LossConfig(margin=0.5, rank_temp=0.3, dist_temp=1.0)
    losses = [
        ("triplet", lambda v: triplet_loss(v[0], v[1], v[2], margin=2.5), tri),
        ("batch_hard_triplet", lambda v: batch_hard_triplet(v, relation, margin=0.5).loss, e),
        ("ranking_distill", lambda v: ranking_distill_loss(e_old, v, tau=0.3), e_new),
        *((f"distribution_distill[{div}]",
           lambda v, d=div: distribution_distill_loss(e_old, v, temp=1.0, divergence=d), e_new)
          for div in DIVERGENCES),
        ("combined", lambda v: combined_loss(e_old, v, relation, combined, lam=0.5).loss, e_new),
    ]
    return cases + [(name, lambda v, f=f: f(v).value, f(x).grad_new, x) for name, f, x in losses]


def gradcheck_suite(seed: int, batch: int, dim: int, points: int) -> list:
    """FD-verify the encoder and every loss, one ``GradCheckReport`` each."""
    return [
        check_gradient(fn, grad, x, name=name)
        for name, fn, grad, x in _cases(seed, batch, dim, points)
    ]
