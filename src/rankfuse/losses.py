"""Training losses with values and exact gradients w.r.t. new-model embeddings.

Conventions shared by every loss here:
  * similarity = -(Euclidean distance), so the best match has the largest
    similarity and soft rank ~ 1;
  * the old model is frozen: gradients are produced for the new embeddings
    only;
  * subgradients at hinge/absolute-value kinks are 0;
  * probability floors clamp at 1e-12 before any log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigurationError, UsageError

_PROB_FLOOR = 1e-12
_DIST_FLOOR = 1e-12
# Chunk size bound for the O(N^3) soft-rank sweeps (floats per chunk): 512 KB
# per buffer, so both buffers fit in a 2 MB L2 cache. Measured on a Xeon at
# one BLAS thread, per ranking_distill_loss call: whole 16-row batches take
# 0.13 ms at any budget; at n=64, 16-row chunks 3.7 ms against 4.6 ms (1 row)
# and 4.7 ms (64 rows); at n=256, 1-row chunks 213 ms against 231 ms (4 rows)
# and 240 ms (30 rows).
_CHUNK_BUDGET = 65_536

# The one definition of each loss choice; config and cli import these.
DIVERGENCES = ("skl", "kl", "js")
LAMBDA_VARIANTS = ("literal", "incloud")
RKD_NORMS = ("cubic", "quadratic")


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
    no_valid_anchors: bool


@dataclass(frozen=True)
class LossToggles:
    pr: bool = True
    rkd: bool = True
    dkd: bool = True


@dataclass(frozen=True)
class RelaxationSchedule:
    """Epoch-decayed weight on the distillation terms.

    ``literal`` uses exponent 10*g/(beta - 0.5); ``incloud`` uses
    10*(g/beta - 0.5). Both decrease strictly in the epoch g.
    """

    total_epochs: float
    variant: str = "literal"

    def __post_init__(self):
        if self.variant not in LAMBDA_VARIANTS:
            raise ConfigurationError(f"unknown relaxation variant {self.variant!r}")
        if self.variant == "literal" and self.total_epochs <= 0.5:
            raise ConfigurationError(
                f"literal relaxation needs total_epochs > 0.5, got {self.total_epochs}"
            )
        if self.total_epochs < 1:
            raise ConfigurationError(f"total_epochs must be >= 1, got {self.total_epochs}")


def relaxation_weight(schedule: RelaxationSchedule, epoch: float) -> float:
    """Distillation weight at a given epoch; in (0, 1), strictly decreasing."""
    g, beta = float(epoch), float(schedule.total_epochs)
    if not 0.0 <= g <= beta:
        raise UsageError(f"epoch {g} outside [0, {beta}]")
    if schedule.variant == "literal":
        return float(expit(-10.0 * g / (beta - 0.5)))
    return float(expit(-10.0 * (g / beta - 0.5)))


# ---------------------------------------------------------------------------
# Similarity and soft ranking


def sigmoid(x, tau: float):
    """Logistic 1/(1+exp(-x/tau)); saturates cleanly for |x/tau| up to 1e4+."""
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    return expit(np.asarray(x, dtype=np.float64) / tau)


def _vectors(e) -> np.ndarray:
    return np.asarray(e, dtype=np.float64)


def pairwise_distances(vectors: np.ndarray) -> np.ndarray:
    v = np.asarray(vectors, dtype=np.float64)
    sq = np.sum(v * v, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (v @ v.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def similarity_matrix(e) -> np.ndarray:
    """S[i, j] = -||e_i - e_j||; symmetric with a zero diagonal."""
    v = _vectors(e)
    if v.shape[0] < 2:
        raise UsageError(f"similarity matrix needs at least 2 rows, got {v.shape[0]}")
    return -pairwise_distances(v)


def similarity_backward(vectors: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Map d(loss)/dS back to d(loss)/dE for S = -pairwise distance."""
    v = np.asarray(vectors, dtype=np.float64)
    d = pairwise_distances(v)
    w = upstream + upstream.T
    a = w / np.maximum(d, _DIST_FLOOR)
    np.fill_diagonal(a, 0.0)
    # dS[i,j]/de_i = -(e_i - e_j)/d_ij, summed over both occurrences of e_k.
    return -(a.sum(axis=1)[:, None] * v) + a @ v


def _rank_sweep(S: np.ndarray, tau: float, r_ref=None, scale: float = 0.0):
    """Soft ranks of S and, given ``r_ref``, dL/dS for L = scale * sum|R - r_ref|.

    One pass over row chunks of the [q, i, j] sigmoid tensor, held in buffers
    allocated once: each chunk gives its rows of R, and because dL/dR[q] =
    scale * sign(R[q] - r_ref[q]) needs only row q, the same chunk then gives
    its rows of dL/dS. Returns (R, dL/dS or None).
    """
    S = np.asarray(S, dtype=np.float64)
    n = S.shape[0]
    if tau <= 0:
        raise UsageError(f"tau must be > 0, got {tau}")
    r = np.empty_like(S)
    ds = None if r_ref is None else np.empty_like(S)
    diag = np.arange(n)
    step = max(1, min(n, _CHUNK_BUDGET // max(n * n, 1)))
    g_buf = np.empty((step, n, n))
    p_buf = None if r_ref is None else np.empty_like(g_buf)
    for start in range(0, n, step):
        rows = S[start : start + step]
        g = g_buf[: len(rows)]
        np.subtract(rows[:, None, :], rows[:, :, None], out=g)  # [q, i, j]
        np.divide(g, tau, out=g)
        expit(g, out=g)
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
        ds[start : start + step] = (
            np.einsum("qi,qik->qk", tc, p) - tc * p.sum(axis=2)
        ) / tau
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
    if norm not in RKD_NORMS:
        raise ConfigurationError(f"rkd norm must be one of {RKD_NORMS}, got {norm!r}")
    n = vo.shape[0]
    s_old = similarity_matrix(vo)
    s_new = similarity_matrix(vn)
    scale = 1.0 / (n**3 if norm == "cubic" else n**2)
    r_old = soft_ranks(s_old, tau)
    r_new, ds = _rank_sweep(s_new, tau, r_old, scale)
    value = scale * np.abs(r_new - r_old).sum()
    np.fill_diagonal(ds, 0.0)
    grad = similarity_backward(vn, ds)
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
    """0.5 (KL(p||q) + KL(q||p)); symmetric bit-exactly."""
    return 0.5 * (kl_divergence(p, q) + kl_divergence(q, p))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence, natural log; bounded by ln 2."""
    pc, qc = _clamped(p), _clamped(q)
    m = 0.5 * (pc + qc)
    return 0.5 * kl_divergence(pc, m) + 0.5 * kl_divergence(qc, m)


def distribution_distill_loss(e_old, e_new, temp: float, divergence: str = "skl") -> LossValue:
    """Row-wise divergence between old and new embedding distributions.

    Sums divergence(softmax(old_i), softmax(new_i)) over the batch. ``kl``
    is KL(old || new); ``js`` and ``skl`` are symmetric in their arguments.
    """
    if divergence not in DIVERGENCES:
        raise ConfigurationError(f"divergence must be one of {DIVERGENCES}, got {divergence!r}")
    vo, vn = _vectors(e_old), _vectors(e_new)
    if vo.shape != vn.shape:
        raise UsageError(f"batch shape mismatch: old {vo.shape} vs new {vn.shape}")
    p = to_distribution(vo, temp)
    q = to_distribution(vn, temp)
    pc, qc = _clamped(p), _clamped(q)

    if divergence == "skl":
        value = 0.5 * np.sum(pc * (np.log(pc) - np.log(qc)) + qc * (np.log(qc) - np.log(pc)))
        df_dq = 0.5 * (-pc / qc + np.log(qc) - np.log(pc) + 1.0)
    elif divergence == "kl":
        value = np.sum(pc * (np.log(pc) - np.log(qc)))
        df_dq = -pc / qc
    else:
        m = 0.5 * (pc + qc)
        value = 0.5 * np.sum(pc * (np.log(pc) - np.log(m))) + 0.5 * np.sum(
            qc * (np.log(qc) - np.log(m))
        )
        df_dq = 0.5 * (np.log(qc) - np.log(m))

    # Chain through softmax: dL/dz_k = q_k (df_k - sum_j q_j df_j), z = e/temp.
    inner = np.sum(q * df_dq, axis=1, keepdims=True)
    grad = q * (df_dq - inner) / temp
    return LossValue(value=float(value), grad_new=grad)


# ---------------------------------------------------------------------------
# Metric learning


def _unit(diff: np.ndarray) -> np.ndarray:
    return diff / max(float(np.linalg.norm(diff)), _DIST_FLOOR)


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
            no_valid_anchors=True,
        )

    masked_pos = np.where(pos, d, -np.inf)
    masked_neg = np.where(neg, d, np.inf)
    hard_p = np.argmax(masked_pos, axis=1)  # first max = lowest index on ties
    hard_n = np.argmin(masked_neg, axis=1)

    anchors = np.flatnonzero(valid)
    n_valid = len(anchors)
    total = 0.0
    active = 0
    for i in anchors:
        hp, hn = int(hard_p[i]), int(hard_n[i])
        hinge = d[i, hp] - d[i, hn] + margin
        if hinge > 0.0:
            total += hinge
            active += 1
            u_ap = _unit(v[i] - v[hp])
            u_an = _unit(v[i] - v[hn])
            grad[i] += (u_ap - u_an) / n_valid
            grad[hp] -= u_ap / n_valid
            grad[hn] += u_an / n_valid
    return BatchTripletResult(
        loss=LossValue(value=total / n_valid, grad_new=grad),
        active_fraction=active / n_valid,
        valid_anchors=n_valid,
        no_valid_anchors=False,
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
    no_valid_anchors: bool


def combined_loss(
    e_old,
    e_new,
    relation,
    margin: float,
    rank_temp: float,
    dist_temp: float,
    lam: float,
    toggles: LossToggles = LossToggles(),
    divergence: str = "skl",
    rkd_norm: str = "cubic",
) -> CombinedLossResult:
    """Place-recognition loss plus relaxed distillation terms.

    total = [pr] + lam * ([rkd] + [dkd]), each term toggleable. Gradients
    flow to the new embeddings only.
    """
    if not (toggles.pr or toggles.rkd or toggles.dkd):
        raise ConfigurationError("all loss terms toggled off")
    vn = _vectors(e_new)
    if (toggles.rkd or toggles.dkd) and e_old is None:
        raise UsageError("distillation toggled on but no old embeddings given")

    grad = np.zeros_like(vn)
    pr_value = rkd_value = dkd_value = 0.0
    active_fraction = 0.0
    no_valid = False

    if toggles.pr:
        pr = batch_hard_triplet(e_new, relation, margin)
        pr_value = pr.loss.value
        active_fraction = pr.active_fraction
        no_valid = pr.no_valid_anchors
        grad += pr.loss.grad_new
    if toggles.rkd:
        rkd = ranking_distill_loss(e_old, e_new, rank_temp, norm=rkd_norm)
        rkd_value = rkd.value
        grad += lam * rkd.grad_new
    if toggles.dkd:
        dkd = distribution_distill_loss(e_old, e_new, dist_temp, divergence=divergence)
        dkd_value = dkd.value
        grad += lam * dkd.grad_new

    total = pr_value + lam * (rkd_value + dkd_value)
    return CombinedLossResult(
        loss=LossValue(value=total, grad_new=grad),
        pr_value=pr_value,
        rkd_value=rkd_value,
        dkd_value=dkd_value,
        active_fraction=active_fraction,
        no_valid_anchors=no_valid,
    )
