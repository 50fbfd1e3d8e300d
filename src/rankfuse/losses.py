"""Training losses with values and exact gradients w.r.t. new-model embeddings.

Conventions shared by every loss here:
  * similarity = -(Euclidean distance), so the best match has the largest
    similarity and soft rank ~ 1;
  * the old model is frozen: gradients are produced for the new embeddings
    only;
  * subgradients at hinge/absolute-value kinks are 0;
  * probability floors clamp at 1e-12 before any log.

The sigmoid runs numpy's ``exp`` on contiguous buffers, so it takes the
SIMD loop where the CPU has one (see ``sigmoid``). That moves the last bit
of float64 losses and gradients with the CPU, but not the float32 snapshots
or ``results.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LossConfig, PlanConfig, check
from .errors import UsageError

_PROB_FLOOR = 1e-12
_DIST_FLOOR = 1e-12
# Chunk size bound for the O(N^3) soft-rank sweeps (floats per chunk): 512 KB
# per buffer, so both buffers fit in a 2 MB L2 cache. Measured on a Xeon at
# one BLAS thread, per ranking_distill_loss call: at n=64, 16-row chunks
# 3.4 ms against 6.1 ms (1 row) and 4.6 ms (64 rows); at n=256, 1-row chunks
# 151-170 ms against 192 ms (4 rows) and 241 ms (16 rows).
_CHUNK_BUDGET = 65_536


@dataclass
class LossValue:
    """Scalar loss plus gradient w.r.t. the new-model embeddings."""

    value: float
    grad_new: np.ndarray


@dataclass
class BatchTripletResult:
    loss: LossValue
    active_fraction: float
    valid_anchors: int


def relaxation_weight(epoch: float, total_epochs: int, variant: str) -> float:
    """Distillation weight at a given epoch; in (0, 1), strictly decreasing.

    ``literal`` uses exponent 10*g/(beta - 0.5); ``incloud`` uses
    10*(g/beta - 0.5), for epoch g of beta = ``total_epochs``.
    """
    check(PlanConfig, "plan", {"epochs": total_epochs}, relations=False)
    check(LossConfig, "loss", {"lambda_variant": variant}, relations=False)
    g, beta = float(epoch), float(total_epochs)
    if not 0.0 <= g <= beta:
        raise UsageError(f"epoch {g} outside [0, {beta}]")
    if variant == "literal":
        x = -10.0 * g / (beta - 0.5)
    else:
        x = -10.0 * (g / beta - 0.5)
    return 1.0 / (1.0 + math.exp(-x))  # math.exp is libm exp; |x| <= 20


# ---------------------------------------------------------------------------
# Similarity and soft ranking


def sigmoid(x, tau: float, out=None):
    """Logistic 1/(1+exp(-v)) of v = x/tau, saturating to 0 and 1 silently.

    Each element equals numpy's ``1 / (1 + np.exp(-v))`` on a contiguous
    array, bit for bit: ``exp`` runs in place on the contiguous ``out``, so
    numpy takes its SIMD loop where the CPU has one, and its libm loop
    elsewhere. The two differ in the last bit on a few percent of inputs,
    by at most about 5e-16 relative. ``out`` (which may be ``x``) must be a
    C-contiguous float64 array of x's shape.
    """
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    if not (out.flags.c_contiguous and out.dtype == np.float64 and out.shape == x.shape):
        raise UsageError(f"sigmoid out must be a C-contiguous float64 array of shape {x.shape}")
    flat = out.reshape(-1)  # a view: out is contiguous
    np.divide(x.reshape(-1), -tau, out=flat)  # x / -tau == -(x / tau) exactly
    with np.errstate(over="ignore"):
        np.exp(flat, out=flat)
    np.add(flat, 1.0, out=flat)
    np.divide(1.0, flat, out=flat)
    return out if out.ndim else out[()]


def _vectors(e) -> np.ndarray:
    return np.asarray(e, dtype=np.float64)


def pairwise_distances(vectors: np.ndarray) -> np.ndarray:
    """Symmetric Euclidean distances with a zero diagonal, in two n x n buffers."""
    v = np.asarray(vectors, dtype=np.float64)
    sq = np.sum(v * v, axis=1)
    gram = v @ v.T
    gram *= 2.0
    d = sq[:, None] + sq[None, :]
    d -= gram
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    np.add(d, d.T, out=gram)
    gram *= 0.5
    np.fill_diagonal(gram, 0.0)
    return gram


def similarity_matrix(e) -> np.ndarray:
    """S[i, j] = -||e_i - e_j||; symmetric with a zero diagonal."""
    v = _vectors(e)
    if v.shape[0] < 2:
        raise UsageError(f"similarity matrix needs at least 2 rows, got {v.shape[0]}")
    d = pairwise_distances(v)
    return np.negative(d, out=d)


def similarity_backward(vectors: np.ndarray, upstream: np.ndarray,
                        distances: np.ndarray) -> np.ndarray:
    """Map d(loss)/dS back to d(loss)/dE for S = -pairwise distance.

    ``distances`` are ``pairwise_distances(vectors)``.
    """
    v = np.asarray(vectors, dtype=np.float64)
    a = upstream + upstream.T
    a /= np.maximum(distances, _DIST_FLOOR)
    np.fill_diagonal(a, 0.0)
    # dS[i,j]/de_i = -(e_i - e_j)/d_ij, summed over both occurrences of e_k.
    return -(a.sum(axis=1)[:, None] * v) + a @ v


def _chunk_rows(n: int) -> int:
    return max(1, min(n, _CHUNK_BUDGET // max(n * n, 1)))


def _rank_sweep(S: np.ndarray, tau: float, r_ref=None, scale: float = 0.0):
    """Soft ranks of S and, given ``r_ref``, dL/dS for L = scale * sum|R - r_ref|.

    One pass over row chunks of the [q, i, j] sigmoid tensor, held in buffers
    allocated once per call: each chunk gives its rows of R, and because
    dL/dR[q] = scale * sign(R[q] - r_ref[q]) needs only row q, the same chunk
    then gives its rows of dL/dS. Returns (R, dL/dS or None).
    """
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    r = np.empty_like(S)
    ds = None if r_ref is None else np.empty_like(S)
    step = _chunk_rows(n)
    diag = np.arange(n)
    g_buf = np.empty((step, n, n))
    p_buf = None if r_ref is None else np.empty_like(g_buf)
    for start in range(0, n, step):
        rows = S[start : start + step]
        g = g_buf[: len(rows)]
        with np.errstate():  # restores the ufunc buffer size on exit
            # At the smallest buffer the broadcast rows are read in place,
            # not copied through it, as in evaluation.euclidean.
            np.setbufsize(16)
            np.subtract(rows[:, None, :], rows[:, :, None], out=g)  # [q, i, j]
        sigmoid(g, tau, out=g)
        g[:, diag, diag] = 0.0
        rc = r[start : start + step]
        np.add(1.0, g.sum(axis=2), out=rc)
        if r_ref is None:
            continue
        # dL/dR; sign(0) = 0 is the kink subgradient.
        tc = scale * np.sign(rc - r_ref[start : start + step])
        p = p_buf[: len(rows)]
        np.subtract(1.0, g, out=p)
        np.multiply(g, p, out=p)  # d sigmoid; 0 on the zeroed diagonal
        ds[start : start + step] = ((tc[:, None, :] @ p)[:, 0, :] - tc * p.sum(axis=2)) / tau
    return r, ds


def soft_ranks(S: np.ndarray, tau: float) -> np.ndarray:
    """Soft rank matrix over every query row of a similarity matrix.

    R[q, i] = 1 + sum_{j != i} sigmoid(S[q, j] - S[q, i]; tau). Each row sums
    to n + n(n-1)/2 because paired sigmoids sum to one.
    """
    return _rank_sweep(S, tau)[0]


def ranking_distill_loss(e_old, e_new, tau: float, norm: str = "cubic") -> LossValue:
    """Mean absolute soft-rank discrepancy between old and new embeddings.

    ``norm`` picks the 1/N^3 normalization as printed ("cubic") or the
    1/N^2 variant matching the number of summands ("quadratic").
    """
    vo, vn = _vectors(e_old), _vectors(e_new)
    if vo.shape != vn.shape:
        raise UsageError(f"batch shape mismatch: old {vo.shape} vs new {vn.shape}")
    check(LossConfig, "loss", {"rkd_norm": norm}, relations=False)
    n = vo.shape[0]
    scale = 1.0 / (n**3 if norm == "cubic" else n**2)
    # The n x n algebra runs in place: S_old is gone before S_new is made,
    # |R_new - R_old| takes R_old's buffer, and -S_new is the distances.
    r_old = soft_ranks(similarity_matrix(vo), tau)
    s_new = similarity_matrix(vn)
    r_new, ds = _rank_sweep(s_new, tau, r_old, scale)
    value = scale * np.abs(np.subtract(r_new, r_old, out=r_old), out=r_old).sum()
    del r_new, r_old  # freed before the backward's buffers are made
    np.fill_diagonal(ds, 0.0)
    grad = similarity_backward(vn, ds, np.negative(s_new, out=s_new))
    return LossValue(value=float(value), grad_new=grad)


# ---------------------------------------------------------------------------
# Distribution distillation


def to_distribution(e: np.ndarray, temp: float) -> np.ndarray:
    """Softmax over embedding coordinates at the given temperature."""
    if temp <= 0:
        raise UsageError(f"temp must be > 0, got {temp}")
    z = np.asarray(e, dtype=np.float64) / temp
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=-1, keepdims=True)


def _clamped(p: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(p, dtype=np.float64), _PROB_FLOOR)


def kl_divergence(p, q) -> float:
    """KL(p || q), natural log, probability floor 1e-12."""
    pc, qc = _clamped(p), _clamped(q)
    return float(np.sum(pc * (np.log(pc) - np.log(qc))))


def symmetric_kl(p, q) -> float:
    """0.5 (KL(p||q) + KL(q||p)) as one sum; symmetric bit-exactly, because
    each element adds the same two terms in either order."""
    pc, qc = _clamped(p), _clamped(q)
    return 0.5 * float(np.sum(pc * (np.log(pc) - np.log(qc)) + qc * (np.log(qc) - np.log(pc))))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence, natural log; bounded by ln 2."""
    pc, qc = _clamped(p), _clamped(q)
    m = 0.5 * (pc + qc)
    return 0.5 * kl_divergence(pc, m) + 0.5 * kl_divergence(qc, m)


_DIVERGENCE_FNS = {"skl": symmetric_kl, "kl": kl_divergence, "js": js_divergence}


def distribution_distill_loss(e_old, e_new, temp: float, divergence: str = "skl") -> LossValue:
    """Row-wise divergence between old and new embedding distributions.

    Sums divergence(softmax(old_i), softmax(new_i)) over the batch, with the
    divergence functions above. ``kl`` is KL(old || new); ``js`` and ``skl``
    are symmetric in their arguments.
    """
    check(LossConfig, "loss", {"divergence": divergence}, relations=False)
    vo, vn = _vectors(e_old), _vectors(e_new)
    if vo.shape != vn.shape:
        raise UsageError(f"batch shape mismatch: old {vo.shape} vs new {vn.shape}")
    p = to_distribution(vo, temp)
    q = to_distribution(vn, temp)
    value = _DIVERGENCE_FNS[divergence](p, q)

    # d(divergence)/dq, elementwise on the clamped distributions.
    pc, qc = _clamped(p), _clamped(q)
    if divergence == "skl":
        df_dq = 0.5 * (-pc / qc + np.log(qc) - np.log(pc) + 1.0)
    elif divergence == "kl":
        df_dq = -pc / qc
    else:
        df_dq = 0.5 * (np.log(qc) - np.log(0.5 * (pc + qc)))

    # Chain through softmax: dL/dz_k = q_k (df_k - sum_j q_j df_j), z = e/temp.
    inner = np.sum(q * df_dq, axis=1, keepdims=True)
    grad = q * (df_dq - inner) / temp
    return LossValue(value=value, grad_new=grad)


# ---------------------------------------------------------------------------
# Metric learning


def _unit(diff: np.ndarray) -> np.ndarray:
    return diff / max(float(np.linalg.norm(diff)), _DIST_FLOOR)


def _units(diff: np.ndarray) -> np.ndarray:
    """``_unit`` of each row, bit for bit: a (1, D) @ (D, 1) matmul is one ddot."""
    norms = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0])
    return diff / np.maximum(norms, _DIST_FLOOR)


def triplet_loss(anchor, positive, negative, margin: float) -> LossValue:
    """Hinged triplet margin loss; grad rows are (anchor, positive, negative)."""
    a = np.asarray(anchor, dtype=np.float64)
    p = np.asarray(positive, dtype=np.float64)
    n = np.asarray(negative, dtype=np.float64)
    if not (a.shape == p.shape == n.shape):
        raise UsageError("triplet embeddings must share one shape")
    if margin < 0:
        raise UsageError(f"margin must be >= 0, got {margin}")
    d_ap = float(np.linalg.norm(a - p))
    d_an = float(np.linalg.norm(a - n))
    value = d_ap - d_an + margin
    grad = np.zeros((3,) + a.shape)
    if value > 0.0:
        u_ap = _unit(a - p)
        u_an = _unit(a - n)
        grad[0] = u_ap - u_an
        grad[1] = -u_ap
        grad[2] = u_an
        return LossValue(value=value, grad_new=grad)
    return LossValue(value=0.0, grad_new=grad)


def batch_hard_triplet(e, relation, margin: float) -> BatchTripletResult:
    """Batch-hard mining: per anchor take the farthest positive and nearest
    negative (ties to the lowest index), average the hinge over valid anchors.
    """
    v = _vectors(e)
    n = v.shape[0]
    pos, neg = relation.positive, relation.negative
    if pos.shape != (n, n):
        raise UsageError(f"relation covers {pos.shape[0]} samples, batch has {n}")
    d = pairwise_distances(v)

    valid = pos.any(axis=1) & neg.any(axis=1)
    grad = np.zeros_like(v)
    if not valid.any():
        return BatchTripletResult(
            loss=LossValue(value=0.0, grad_new=grad),
            active_fraction=0.0,
            valid_anchors=0,
        )

    masked_pos = np.where(pos, d, -np.inf)
    masked_neg = np.where(neg, d, np.inf)
    hard_p = np.argmax(masked_pos, axis=1)  # first max = lowest index on ties
    hard_n = np.argmin(masked_neg, axis=1)

    anchors = np.flatnonzero(valid)
    n_valid = len(anchors)
    hp, hn = hard_p[anchors], hard_n[anchors]
    hinge = d[anchors, hp] - d[anchors, hn] + margin
    on = hinge > 0.0
    active = int(on.sum())
    # The bits of a loop over active anchors: cumsum adds the hinges in
    # order, each norm is one ddot (as np.linalg.norm of a row), and add.at
    # applies the (anchor, positive, negative) updates in the loop's order;
    # grad[hp] -= u equals grad[hp] += -u.
    total = float(np.cumsum(hinge[on])[-1]) if active else 0.0
    a, hp, hn = anchors[on], hp[on], hn[on]
    u_ap, u_an = _units(v[a] - v[hp]), _units(v[a] - v[hn])
    step = np.stack([(u_ap - u_an) / n_valid, -(u_ap / n_valid), u_an / n_valid], axis=1)
    np.add.at(grad, np.stack([a, hp, hn], axis=1).ravel(), step.reshape(-1, v.shape[1]))
    return BatchTripletResult(
        loss=LossValue(value=total / n_valid, grad_new=grad),
        active_fraction=active / n_valid,
        valid_anchors=n_valid,
    )


# ---------------------------------------------------------------------------
# Combined objective


@dataclass
class CombinedLossResult:
    loss: LossValue
    pr_value: float
    rkd_value: float
    dkd_value: float
    active_fraction: float


def combined_loss(e_old, e_new, relation, loss: LossConfig, lam: float) -> CombinedLossResult:
    """Place-recognition loss plus relaxed distillation terms.

    total = [pr] + lam * ([rkd] + [dkd]), each term switched by the loss
    section, which refuses all three off. Gradients flow to the new
    embeddings only.
    """
    vn = _vectors(e_new)
    if (loss.rkd or loss.dkd) and e_old is None:
        raise UsageError("distillation toggled on but no old embeddings given")

    grad = np.zeros_like(vn)
    pr_value = rkd_value = dkd_value = 0.0
    active_fraction = 0.0

    if loss.pr:
        pr = batch_hard_triplet(e_new, relation, loss.margin)
        pr_value = pr.loss.value
        active_fraction = pr.active_fraction
        grad += pr.loss.grad_new
    if loss.rkd:
        rkd = ranking_distill_loss(e_old, e_new, loss.rank_temp, norm=loss.rkd_norm)
        rkd_value = rkd.value
        grad += lam * rkd.grad_new
    if loss.dkd:
        dkd = distribution_distill_loss(e_old, e_new, loss.dist_temp, divergence=loss.divergence)
        dkd_value = dkd.value
        grad += lam * dkd.grad_new

    total = pr_value + lam * (rkd_value + dkd_value)
    return CombinedLossResult(
        loss=LossValue(value=total, grad_new=grad),
        pr_value=pr_value,
        rkd_value=rkd_value,
        dkd_value=dkd_value,
        active_fraction=active_fraction,
    )
