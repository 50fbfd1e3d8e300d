"""Loss values, gradients, soft ranking, divergences, and the relaxation schedule."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankfuse.losses as losses_mod
from rankfuse.config import LossConfig
from rankfuse.data import PairRelation
from rankfuse.errors import ConfigurationError, UsageError
from rankfuse.gradcheck import check_gradient
from rankfuse.losses import (
    batch_hard_triplet,
    combined_loss,
    distribution_distill_loss,
    js_divergence,
    kl_divergence,
    pairwise_distances,
    ranking_distill_loss,
    relaxation_weight,
    sigmoid,
    similarity_backward,
    similarity_matrix,
    soft_ranks,
    symmetric_kl,
    to_distribution,
    triplet_loss,
)


def _unit_rows(n, d, seed=0):
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(n, d))
    return e / np.linalg.norm(e, axis=1, keepdims=True)


def _relation(positive_pairs, negative_pairs, n):
    pos = np.zeros((n, n), dtype=bool)
    neg = np.zeros((n, n), dtype=bool)
    for i, j in positive_pairs:
        pos[i, j] = pos[j, i] = True
    for i, j in negative_pairs:
        neg[i, j] = neg[j, i] = True
    return PairRelation(positive=pos, negative=neg)


def soft_rank_row(similarities: np.ndarray, tau: float) -> np.ndarray:
    """Oracle: soft rank of each candidate given its similarity to one query.

    R_i = 1 + sum_{j != i} sigmoid(s_j - s_i; tau), one row at a time, as a
    plain reference for the chunked all-rows ``soft_ranks``.
    """
    s = np.asarray(similarities, dtype=np.float64)
    g = sigmoid(s[None, :] - s[:, None], tau)
    np.fill_diagonal(g, 0.0)
    return 1.0 + g.sum(axis=1)


def rkd_three_sweeps(e_old, e_new, tau: float, norm: str = "cubic"):
    """Oracle: ranking distillation as three separate sigmoid sweeps.

    Old soft ranks, new soft ranks, then the [q, i, j] tensor again, one query
    row at a time, for dL/dS: the plain reference for the one-pass
    ``ranking_distill_loss``. Returns (value, grad_new).
    """
    vn = np.asarray(e_new, dtype=np.float64)
    n = vn.shape[0]
    s_old, s_new = similarity_matrix(e_old), similarity_matrix(vn)
    r_old = np.stack([soft_rank_row(row, tau) for row in s_old])
    r_new = np.stack([soft_rank_row(row, tau) for row in s_new])
    scale = 1.0 / (n**3 if norm == "cubic" else n**2)
    delta = r_new - r_old
    value = scale * np.abs(delta).sum()
    t = scale * np.sign(delta)
    ds = np.empty((n, n))
    for q, row in enumerate(s_new):
        g = sigmoid(row[None, :] - row[:, None], tau)
        p = g * (1.0 - g)
        np.fill_diagonal(p, 0.0)
        ds[q] = ((t[q][None, :] @ p)[0] - t[q] * p.sum(axis=1)) / tau
    np.fill_diagonal(ds, 0.0)
    return float(value), similarity_backward(vn, ds, pairwise_distances(vn))


# ---------------------------------------------------------------------------
# Similarity and sigmoid


def test_similarity_three_four_five():
    e = np.array([[0.0, 0.0], [3.0, 4.0]])
    s = similarity_matrix(e)
    assert s[0, 1] == pytest.approx(-5.0, abs=1e-12)
    assert s[0, 0] == 0.0


def test_similarity_symmetric_and_needs_two_rows(unit_rows):
    s = similarity_matrix(unit_rows(6, 4))
    np.testing.assert_allclose(s, s.T, atol=1e-12)
    with pytest.raises(UsageError):
        similarity_matrix(np.ones((1, 4)))


def test_sigmoid_fixtures():
    assert sigmoid(0.0, 1.0) == 0.5
    assert sigmoid(0.5, 0.5) == pytest.approx(0.731059, abs=1e-6)
    assert sigmoid(-1000.0, 0.01) == 0.0  # saturates, no overflow warning
    with pytest.raises(UsageError):
        sigmoid(1.0, 0.0)


def _libm_sigmoid(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:  # libm exp returns inf there, and 1/(1+inf) = 0
        return 0.0


_SIGMOID_EDGES = [745.0, -745.0, math.inf, -math.inf, 0.0, 1e-300, -1e-300,
                  709.7, -709.7, 710.0, -710.0, 36.7, -36.7]


@pytest.mark.parametrize("shape", [(n,) for n in [*range(1, 40), 63, 64, 65, 4096, 65_536]]
                         + [(), (1, 1), (3, 5), (2, 3, 4), (16, 64, 64)])
def test_sigmoid_is_libm_exact_elementwise(shape):
    # The sweep's sigmoid is numpy's 1/(1+np.exp(-v)) on a contiguous array,
    # bit for bit, whatever loop numpy's exp takes on this CPU. Its SIMD loop
    # differs from libm's exp in the last bit on a few percent of these
    # inputs, and the sigmoid stays within 1e-15 relative of libm's.
    rng = np.random.default_rng(sum(shape) + len(shape))
    x = rng.normal(0.0, 8.0, size=shape)
    if x.size >= len(_SIGMOID_EDGES):
        x.reshape(-1)[: len(_SIGMOID_EDGES)] = _SIGMOID_EDGES
    for tau in (1.0, 0.1, 0.37):
        v = np.ascontiguousarray(x / tau)
        with np.errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-v))
        assert np.asarray(sigmoid(x, tau)).tobytes() == expected.tobytes(), tau
        buf = x.copy()  # in place, as the sweep calls it
        sigmoid(buf, tau, out=buf)
        assert buf.tobytes() == expected.tobytes(), tau
        libm = np.array([_libm_sigmoid(e) for e in v.reshape(-1)]).reshape(shape)
        np.testing.assert_allclose(expected, libm, rtol=1e-15, atol=0.0)


def test_sigmoid_refuses_buffers_it_would_copy():
    x = np.zeros((4, 6))
    with pytest.raises(UsageError, match="out must be a C-contiguous"):
        sigmoid(x, 1.0, out=np.empty((6, 4)).T)
    with pytest.raises(UsageError, match="out must be a C-contiguous"):
        sigmoid(x, 1.0, out=np.empty((4, 5)))


def test_pairwise_distances_zero_diag_symmetric(unit_rows):
    d = pairwise_distances(unit_rows(7, 5, seed=3))
    assert np.all(np.diagonal(d) == 0.0)
    np.testing.assert_allclose(d, d.T, atol=0)
    assert np.all(d >= 0)


# ---------------------------------------------------------------------------
# Soft ranks


def test_soft_rank_hard_limit_fixture():
    # Candidates at distances (0.1, 0.2, 0.3) from the query, tau = 0.01.
    r = soft_rank_row(np.array([-0.1, -0.2, -0.3]), tau=0.01)
    np.testing.assert_allclose(r, [1.0, 2.0, 3.0], atol=1e-3)
    assert r.sum() == pytest.approx(6.0, abs=1e-9)
    assert r[0] > 1.0 and r[2] < 3.0


def test_soft_rank_equal_similarities_tie():
    r = soft_rank_row(np.array([-0.5, -0.5, -0.9]), tau=0.1)
    assert r[0] == r[1]


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 9),
    d=st.integers(2, 6),
    tau=st.floats(0.06, 2.0),
    seed=st.integers(0, 10_000),
)
def test_soft_rank_row_sum_identity_and_range(n, d, tau, seed):
    # Unit-normalized rows (the encoder's output regime): distances stay
    # within [0, 2], so gap/tau <= 33 and the open-interval bounds survive
    # float64 rounding.
    e = _unit_rows(n, d, seed)
    r = soft_ranks(similarity_matrix(e), tau)
    expected = n + n * (n - 1) / 2.0
    np.testing.assert_allclose(r.sum(axis=1), expected, atol=1e-9)
    assert np.all(r > 1.0) and np.all(r < n)


def test_soft_ranks_matches_per_row(unit_rows):
    e = unit_rows(6, 4, seed=5)
    s = similarity_matrix(e)
    full = soft_ranks(s, tau=0.3)
    for q in range(6):
        np.testing.assert_allclose(full[q], soft_rank_row(s[q], 0.3), atol=0)
    with pytest.raises(UsageError):
        soft_ranks(s, 0.0)


def test_soft_ranks_chunking_is_invisible(unit_rows, monkeypatch):
    e = unit_rows(12, 4, seed=8)
    s = similarity_matrix(e)
    whole = soft_ranks(s, tau=0.2)
    monkeypatch.setattr(losses_mod, "_CHUNK_BUDGET", 12 * 12 * 2)  # 2 rows per chunk
    np.testing.assert_array_equal(soft_ranks(s, tau=0.2), whole)


def test_hard_rank_oracle_at_small_tau():
    # Powers-of-three offsets keep every query's distance gaps >= 0.1: in
    # base 3, 2*3^q never equals 3^i + 3^j, so no query sees two equidistant
    # candidates and tau=0.01 sits deep in the hard-rank regime for all rows.
    rng = np.random.default_rng(42)
    offsets = 0.1 * np.array([0.0, 1.0, 3.0, 9.0, 27.0, 81.0, 243.0, 729.0])
    offsets = rng.permutation(offsets)
    direction = np.array([0.6, 0.8])
    e = offsets[:, None] * direction[None, :]
    s = similarity_matrix(e)
    r = soft_ranks(s, tau=0.01)
    d = pairwise_distances(e)
    for q in range(8):
        hard = 1 + np.sum(d[q][None, :] < d[q][:, None], axis=1)
        np.testing.assert_allclose(r[q], hard, atol=1e-3)


# ---------------------------------------------------------------------------
# Ranking distillation


def _tied_pair(n, seed):
    """Unit rows for (old, new); from n = 4 on, rows repeat so ranks tie exactly."""
    old, new = _unit_rows(n, 8, seed), _unit_rows(n, 8, seed + 1)
    if n >= 4:
        new[n // 2 :] = new[: n - n // 2]
        old[-1] = old[0]
    return old, new


@pytest.mark.parametrize("n", [2, 7, 64, 256])
def test_rkd_one_pass_matches_three_sweep_oracle_bit_for_bit(n, monkeypatch):
    # Chunks of base-1, base and base+1 rows; base = (n-1)//3 leaves a 1-row
    # tail. At n = 256 the default budget gives 1-row chunks.
    base = max(1, (n - 1) // 3)
    budgets = [losses_mod._CHUNK_BUDGET] if n == 256 else [
        rows * n * n for rows in sorted({max(1, base - 1), base, base + 1})]
    for norm in ("cubic", "quadratic"):
        for tau in (0.3, 0.05, 0.01):  # 0.01 saturates some sigmoids to 0 and 1
            old, new = _tied_pair(n, seed=n)
            value, grad = rkd_three_sweeps(old, new, tau, norm)
            for budget in budgets:
                monkeypatch.setattr(losses_mod, "_CHUNK_BUDGET", budget)
                rows = losses_mod._chunk_rows(n)
                out = ranking_distill_loss(old, new, tau, norm=norm)
                assert out.value == value, (norm, tau, rows)
                assert np.array_equal(out.grad_new, grad), (norm, tau, rows)


def test_rkd_holds_at_most_seven_n_by_n_arrays():
    # The sweep at n = 256 holds two 1-row [q, i, j] chunks, and the n x n
    # algebra at most four matrices at once: R_old, S_new, R_new and dL/dS in
    # the sweep. Writing each step into a new matrix holds about nine
    # (4.7 MB), which the bound refuses.
    n = 256
    old, new = _unit_rows(n, 16, 1), _unit_rows(n, 16, 2)
    ranking_distill_loss(old, new, tau=0.1)  # first-call allocations outside the count
    tracemalloc.start()
    try:
        ranking_distill_loss(old, new, tau=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * n * n * 8, peak


def test_rkd_evaluates_two_sigmoid_sweeps(monkeypatch):
    # One n^3 sweep per side: soft ranks and dL/dS of the new side share it.
    evaluated = []
    real = losses_mod.sigmoid

    def counting(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(losses_mod, "sigmoid", counting)
    n = 50  # two chunks at the default budget, the second one shorter
    old, new = _unit_rows(n, 8, 1), _unit_rows(n, 8, 2)
    ranking_distill_loss(old, new, tau=0.1)
    assert sum(evaluated) == 2 * n**3
    evaluated.clear()
    soft_ranks(similarity_matrix(new), tau=0.1)
    assert sum(evaluated) == n**3


def test_rkd_zero_for_identical_embeddings(unit_rows):
    e = unit_rows(5, 8)
    out = ranking_distill_loss(e, e.copy(), tau=0.1)
    assert out.value == 0.0
    np.testing.assert_array_equal(out.grad_new, 0.0)


def test_rkd_positive_and_bounded(unit_rows):
    for seed in range(5):
        n = 6
        old, new = _unit_rows(n, 8, seed), _unit_rows(n, 8, seed + 100)
        out = ranking_distill_loss(old, new, tau=0.1)
        assert 0.0 < out.value <= (n - 1) / n  # N^2 pairs, each |dR| < N-1, /N^3


def test_rkd_norm_variants_scale_by_n(unit_rows):
    old, new = _unit_rows(5, 8, 1), _unit_rows(5, 8, 2)
    cubic = ranking_distill_loss(old, new, tau=0.1, norm="cubic")
    quad = ranking_distill_loss(old, new, tau=0.1, norm="quadratic")
    assert quad.value == pytest.approx(5.0 * cubic.value, rel=1e-12)
    with pytest.raises(ConfigurationError):
        ranking_distill_loss(old, new, tau=0.1, norm="quartic")


def test_rkd_shape_mismatch(unit_rows):
    with pytest.raises(UsageError):
        ranking_distill_loss(_unit_rows(4, 8), _unit_rows(5, 8), tau=0.1)


def test_rkd_gradient_matches_finite_differences():
    old = _unit_rows(5, 8, seed=3)
    new = _unit_rows(5, 8, seed=4)

    def fn(flat):
        return ranking_distill_loss(old, flat.reshape(5, 8), tau=0.3).value

    grad = ranking_distill_loss(old, new, tau=0.3).grad_new.ravel()
    report = check_gradient(fn, grad, new.ravel(), name="rkd")
    assert report.passed, report.line()


# ---------------------------------------------------------------------------
# Distributions and divergences


def test_to_distribution_fixtures():
    p = to_distribution(np.array([[1.0, 0.0]]), temp=1.0)[0]
    np.testing.assert_allclose(p, [0.731059, 0.268941], atol=1e-6)
    uniform = to_distribution(np.full((1, 8), 3.25), temp=2.0)[0]
    np.testing.assert_allclose(uniform, 1.0 / 8.0, atol=1e-12)
    rows = to_distribution(np.random.default_rng(0).normal(size=(6, 9)), temp=0.7)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(rows > 0)


def test_skl_frozen_fixture():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    assert kl_divergence(p, q) == pytest.approx(0.5108256237659905, abs=1e-12)
    assert kl_divergence(q, p) == pytest.approx(0.36806420716849714, abs=1e-12)
    assert symmetric_kl(p, q) == pytest.approx(0.43945, abs=1e-4)


def test_kl_is_asymmetric():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    assert kl_divergence(p, q) != kl_divergence(q, p)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 12))
def test_skl_bit_exact_symmetry_and_js_bound(seed, d):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d))
    q = rng.dirichlet(np.ones(d))
    assert symmetric_kl(p, q) == symmetric_kl(q, p)  # bit-exact by construction
    js = js_divergence(p, q)
    assert 0.0 <= js <= math.log(2.0) + 1e-12
    assert js == pytest.approx(js_divergence(q, p), abs=0)


def test_divergences_zero_on_identical():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_divergence(p, p) == 0.0
    assert symmetric_kl(p, p) == 0.0
    assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-15)


def test_divergence_floor_handles_zero_entries():
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert np.isfinite(symmetric_kl(p, q))
    assert np.isfinite(js_divergence(p, q))


@pytest.mark.parametrize("divergence, fn", [
    ("skl", symmetric_kl), ("kl", kl_divergence), ("js", js_divergence),
])
def test_dkd_value_is_the_divergence_function(divergence, fn):
    # The training loss takes its value from the divergence functions that
    # criterion 3's fixtures check, so those fixtures cover the trained loss.
    rng = np.random.default_rng(31)
    for batch, temp in ((2, 1.0), (16, 0.5), (64, 2.0), (256, 1.0)):
        old = rng.normal(0.0, 2.0, (batch, 12))
        new = rng.normal(0.0, 2.0, (batch, 12))
        out = distribution_distill_loss(old, new, temp=temp, divergence=divergence)
        expected = fn(to_distribution(old, temp), to_distribution(new, temp))
        assert out.value == expected, (divergence, batch)


def test_dkd_identical_embeddings_zero_for_all_divergences(unit_rows):
    e = unit_rows(5, 8)
    for div in ("skl", "kl", "js"):
        out = distribution_distill_loss(e, e.copy(), temp=1.0, divergence=div)
        assert out.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.grad_new, 0.0, atol=1e-12)


def test_dkd_skl_swapping_batches_keeps_value(unit_rows):
    a, b = _unit_rows(4, 6, 1), _unit_rows(4, 6, 2)
    fwd = distribution_distill_loss(a, b, temp=1.0, divergence="skl")
    rev = distribution_distill_loss(b, a, temp=1.0, divergence="skl")
    assert fwd.value == rev.value


def test_dkd_gradients_match_finite_differences():
    old = _unit_rows(5, 8, seed=6)
    new = _unit_rows(5, 8, seed=7)
    for div in ("skl", "kl", "js"):
        def fn(flat, div=div):
            return distribution_distill_loss(old, flat.reshape(5, 8), temp=0.8, divergence=div).value

        grad = distribution_distill_loss(old, new, temp=0.8, divergence=div).grad_new.ravel()
        report = check_gradient(fn, grad, new.ravel(), name=div)
        assert report.passed, report.line()
    with pytest.raises(ConfigurationError):
        distribution_distill_loss(old, new, temp=1.0, divergence="hellinger")


# ---------------------------------------------------------------------------
# Triplet losses


def test_triplet_fixtures():
    a = np.zeros(2)
    p = np.array([0.5, 0.0])
    n = np.array([1.0, 0.0])
    assert triplet_loss(a, p, n, margin=0.2).value == 0.0
    out = triplet_loss(a, p, n, margin=0.6)
    assert out.value == pytest.approx(0.1, abs=1e-12)
    assert triplet_loss(a, a.copy(), n, margin=0.0).value == 0.0


def test_triplet_inactive_gradient_is_zero():
    a = np.zeros(3)
    p = np.array([0.1, 0.0, 0.0])
    n = np.array([5.0, 0.0, 0.0])
    out = triplet_loss(a, p, n, margin=0.2)
    np.testing.assert_array_equal(out.grad_new, 0.0)


def test_batch_hard_reduces_to_single_triplet():
    e = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    rel = _relation([(0, 1)], [(0, 2)], 3)
    out = batch_hard_triplet(e, rel, margin=0.6)
    assert out.loss.value == pytest.approx(0.1, abs=1e-12)
    assert out.valid_anchors == 1
    assert out.active_fraction == 1.0
    assert out.valid_anchors != 0


def test_batch_hard_no_valid_anchor_flag():
    e = _unit_rows(4, 3)
    rel = _relation([], [(0, 1)], 4)
    out = batch_hard_triplet(e, rel, margin=0.2)
    assert out.valid_anchors == 0
    assert out.loss.value == 0.0
    assert out.active_fraction == 0.0
    np.testing.assert_array_equal(out.loss.grad_new, 0.0)


def test_batch_hard_tie_breaks_to_lowest_index():
    # Two positives at identical distance: gradient must flow to the first.
    e = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.2]])
    rel = _relation([(0, 1), (0, 2)], [(0, 3)], 4)
    out = batch_hard_triplet(e, rel, margin=1.0)
    assert np.any(out.loss.grad_new[1] != 0.0)
    np.testing.assert_array_equal(out.loss.grad_new[2], 0.0)


def test_batch_hard_order_independent(unit_rows):
    e = _unit_rows(8, 4, seed=9)
    rel = _relation([(0, 1), (2, 3), (4, 5)], [(0, 4), (1, 5), (2, 6), (3, 7)], 8)
    base = batch_hard_triplet(e, rel, margin=0.5)
    perm = np.array([3, 1, 0, 2, 7, 5, 4, 6])
    rel_p = PairRelation(
        positive=rel.positive[np.ix_(perm, perm)],
        negative=rel.negative[np.ix_(perm, perm)],
    )
    out = batch_hard_triplet(e[perm], rel_p, margin=0.5)
    assert out.loss.value == pytest.approx(base.loss.value, abs=1e-12)
    assert out.active_fraction == base.active_fraction


def test_batch_hard_relation_shape_checked(unit_rows):
    rel = _relation([(0, 1)], [(0, 2)], 3)
    with pytest.raises(UsageError):
        batch_hard_triplet(_unit_rows(4, 3), rel, margin=0.2)


def oracle_batch_hard_triplet(e, relation, margin):
    """Batch-hard mining as a loop over anchors: the byte oracle."""
    v = np.asarray(e, dtype=np.float64)
    d = pairwise_distances(v)
    pos, neg = relation.positive, relation.negative
    valid = pos.any(axis=1) & neg.any(axis=1)
    grad = np.zeros_like(v)
    if not valid.any():
        return 0.0, grad, 0.0, 0, True
    hard_p = np.argmax(np.where(pos, d, -np.inf), axis=1)
    hard_n = np.argmin(np.where(neg, d, np.inf), axis=1)
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
            u_ap = (v[i] - v[hp]) / max(float(np.linalg.norm(v[i] - v[hp])), 1e-12)
            u_an = (v[i] - v[hn]) / max(float(np.linalg.norm(v[i] - v[hn])), 1e-12)
            grad[i] += (u_ap - u_an) / n_valid
            grad[hp] -= u_ap / n_valid
            grad[hn] += u_an / n_valid
    return total / n_valid, grad, active / n_valid, n_valid, False


def _batch_hard_bytes(out):
    return (np.float64(out.loss.value).tobytes(), out.loss.grad_new.tobytes(),
            out.active_fraction, out.valid_anchors, out.valid_anchors == 0)


def _oracle_bytes(e, relation, margin):
    value, grad, fraction, valid, none = oracle_batch_hard_triplet(e, relation, margin)
    return np.float64(value).tobytes(), grad.tobytes(), fraction, valid, none


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    dim=st.integers(1, 33),
    quantize=st.booleans(),
    copies=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=8),
    p_pos=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
    p_neg=st.sampled_from([0.0, 0.3, 1.0]),
    margin=st.sampled_from([0.0, 1e-3, 0.2, 1.0, 10.0]),
)
def test_batch_hard_matches_loop_oracle_bytes(seed, n, dim, quantize, copies, p_pos, p_neg,
                                              margin):
    # Quantised and copied rows tie distances (and make zero differences);
    # empty masks leave no valid anchor, and margin 0 leaves hinges inactive.
    rng = np.random.default_rng(seed)
    e = rng.normal(size=(n, dim))
    if quantize:
        e = np.round(e)
    for src, dst in copies:
        e[dst % n] = e[src % n]
    pos = rng.random((n, n)) < p_pos
    neg = ~pos & (rng.random((n, n)) < p_neg)
    np.fill_diagonal(pos, False)
    np.fill_diagonal(neg, False)
    relation = PairRelation(positive=pos, negative=neg)
    assert _batch_hard_bytes(batch_hard_triplet(e, relation, margin)) == _oracle_bytes(
        e, relation, margin)


@pytest.mark.parametrize("case", ["ties", "no valid anchor", "all inactive", "reference"])
def test_batch_hard_oracle_cases(case):
    rng = np.random.default_rng(31)
    n, margin = 64, 0.2
    e = _unit_rows(n, 32, seed=31)
    pos = np.zeros((n, n), bool)
    pos[np.arange(0, n, 2), np.arange(1, n, 2)] = True
    pos |= pos.T
    neg = ~pos
    np.fill_diagonal(neg, False)
    if case == "ties":  # rows 4k..4k+3 coincide: every mined distance ties
        e = np.repeat(e[::4], 4, axis=0)
    elif case == "no valid anchor":
        pos[:] = False
    elif case == "all inactive":  # positives coincide, negatives lie past the margin
        e = np.repeat(e[::2], 2, axis=0)
        margin = 0.0
    else:
        e = rng.normal(size=(n, 32))
    relation = PairRelation(positive=pos, negative=neg)
    out = batch_hard_triplet(e, relation, margin)
    assert _batch_hard_bytes(out) == _oracle_bytes(e, relation, margin)
    if case == "all inactive":
        assert out.valid_anchors == n and out.active_fraction == 0.0


def test_batch_hard_gradient_matches_finite_differences():
    e = _unit_rows(6, 5, seed=12)
    rel = _relation([(0, 1), (2, 3)], [(0, 4), (2, 5), (1, 5)], 6)

    def fn(flat):
        return batch_hard_triplet(flat.reshape(6, 5), rel, margin=0.4).loss.value

    grad = batch_hard_triplet(e, rel, margin=0.4).loss.grad_new.ravel()
    report = check_gradient(fn, grad, e.ravel(), name="batch_hard")
    assert report.passed, report.line()


# ---------------------------------------------------------------------------
# Relaxation schedule


def test_relaxation_literal_fixtures():
    assert relaxation_weight(0, 60, "literal") == 0.5
    assert relaxation_weight(60, 60, "literal") == pytest.approx(4.2e-5, abs=1e-6)


def test_relaxation_strictly_decreasing_both_variants():
    for variant in ("literal", "incloud"):
        for beta in (20, 60):
            values = [relaxation_weight(g, beta, variant) for g in range(beta + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert all(0.0 < v < 1.0 for v in values)


def test_relaxation_validation():
    with pytest.raises(ConfigurationError, match="plan.epochs"):
        relaxation_weight(0, 0.4, "literal")
    with pytest.raises(ConfigurationError, match="loss.lambda_variant"):
        relaxation_weight(0, 10, "cosine")
    with pytest.raises(UsageError):
        relaxation_weight(11, 10, "incloud")
    with pytest.raises(UsageError):
        relaxation_weight(-1, 10, "incloud")


def test_relaxation_incloud_closed_form():
    assert relaxation_weight(0, 40, "incloud") == pytest.approx(
        1.0 / (1.0 + math.exp(-5.0)), abs=1e-15
    )
    assert relaxation_weight(20, 40, "incloud") == 0.5


# ---------------------------------------------------------------------------
# Combined objective


def _combined_inputs(seed=0):
    old = _unit_rows(6, 8, seed + 50)
    new = _unit_rows(6, 8, seed)
    rel = _relation([(0, 1), (2, 3)], [(0, 4), (2, 5), (1, 5)], 6)
    return old, new, rel


def test_combined_all_off_is_config_error():
    # combined_loss takes the loss section, which refuses all terms off when
    # it is built and again on every replace.
    with pytest.raises(ConfigurationError):
        LossConfig(pr=False, rkd=False, dkd=False)
    with pytest.raises(ConfigurationError):
        dataclasses.replace(LossConfig(pr=False, dkd=False), rkd=False)


def test_combined_distill_requires_old_embeddings():
    _, new, rel = _combined_inputs()
    with pytest.raises(UsageError):
        combined_loss(None, new, rel, LossConfig(), 0.5)


def test_combined_lambda_zero_equals_batch_triplet():
    old, new, rel = _combined_inputs()
    out = combined_loss(old, new, rel, LossConfig(), lam=0.0)
    pr = batch_hard_triplet(new, rel, margin=0.2)
    assert out.loss.value == pr.loss.value
    np.testing.assert_array_equal(out.loss.grad_new, pr.loss.grad_new)


def test_combined_identical_batches_reduce_to_pr():
    _, new, rel = _combined_inputs()
    out = combined_loss(new, new.copy(), rel, LossConfig(), lam=0.9)
    assert out.rkd_value == 0.0
    assert out.dkd_value == pytest.approx(0.0, abs=1e-12)
    assert out.loss.value == pytest.approx(out.pr_value, abs=1e-12)


def test_combined_matches_component_sum():
    old, new, rel = _combined_inputs(seed=2)
    lam = 0.37
    out = combined_loss(old, new, rel, LossConfig(dist_temp=0.8), lam=lam)
    pr = batch_hard_triplet(new, rel, margin=0.2)
    rkd = ranking_distill_loss(old, new, tau=0.1)
    dkd = distribution_distill_loss(old, new, temp=0.8)
    assert out.loss.value == pytest.approx(pr.loss.value + lam * (rkd.value + dkd.value), abs=1e-12)
    np.testing.assert_allclose(
        out.loss.grad_new,
        pr.loss.grad_new + lam * (rkd.grad_new + dkd.grad_new),
        atol=1e-15,
    )
    assert out.pr_value == pr.loss.value
    assert out.active_fraction == pr.active_fraction


def test_combined_fine_tuning_toggle_row():
    old, new, rel = _combined_inputs(seed=3)
    out = combined_loss(old, new, rel, LossConfig(rkd=False, dkd=False), lam=0.5)
    assert out.rkd_value == 0.0 and out.dkd_value == 0.0
    assert out.loss.value == out.pr_value


def test_similarity_backward_chain_rule(unit_rows):
    # d(sum of S)/dE through the similarity map matches finite differences.
    e = _unit_rows(5, 4, seed=20)
    w = np.random.default_rng(21).normal(size=(5, 5))

    def fn(flat):
        return float(np.sum(w * similarity_matrix(flat.reshape(5, 4))))

    grad = similarity_backward(e, w, pairwise_distances(e)).ravel()
    report = check_gradient(fn, grad, e.ravel(), name="similarity")
    assert report.passed, report.line()
