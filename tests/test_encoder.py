"""Point-set encoder: forward, gradients, optimizer, and snapshots."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse.encoder import (
    _ENCODE_BUDGET,
    _NORM_FLOOR,
    _chunk_bounds,
    _head,
    AdamState,
    EncoderParams,
    TrainPass,
    adam_step,
    backward,
    encode,
    encode_with_cache,
    flatten_params,
    init_params,
    load_snapshot,
    make_snapshot,
    params_digest,
    save_snapshot,
    unflatten_params,
)
from rankfuse.errors import TrainingError, UsageError


def _scans(n, p, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, p, 3))


def _grads(params, scans, upstream, normalize=True):
    _, cache = encode_with_cache(params, scans, normalize)
    return backward(params, scans, upstream, normalize, cache=cache)


# ---------------------------------------------------------------------------
# Oracle: the training forward and a dense backward, caching every
# pre-activation and masking with dense (B, P, h) arrays. The forward computes
# the second layer channel-major, as the encoder defines it, so its
# embeddings are the pass's bytes. The backward sums over all B·P rows where
# the pass sums over the winner rows only, so only the head's gradients keep
# their bytes; the other four agree within ``_DENSE_RTOL``.


def _forward(params, x, normalize):
    p = params.astype(np.float64)
    a1 = x @ p.w1 + p.b1
    h1 = np.maximum(a1, 0.0)
    a2 = np.matmul(p.w2.T, h1.transpose(0, 2, 1)).transpose(0, 2, 1) + p.b2
    h2 = np.maximum(a2, 0.0)
    idx = np.argmax(h2, axis=1)
    pooled = np.take_along_axis(h2, idx[:, None, :], axis=1)[:, 0, :]
    e, z, norms = _head(p, pooled, normalize)
    return e, (p, x, a1, h1, a2, idx, pooled, z, norms)


def oracle_backward(params, x, upstream, normalize):
    _, cache = _forward(params, x, normalize)
    p, x, a1, h1, a2, idx, pooled, z, norms = cache
    de = np.asarray(upstream, dtype=np.float64)
    if normalize:
        safe = np.maximum(norms, _NORM_FLOOR)
        e = z / safe
        dz = (de - np.sum(de * e, axis=1, keepdims=True) * e) / safe
        dz[norms[:, 0] < _NORM_FLOOR] = 0.0
    else:
        dz = de
    dw3 = pooled.T @ dz
    db3 = dz.sum(axis=0)
    dpooled = dz @ p.w3.T
    dh2 = np.zeros_like(a2)
    np.put_along_axis(dh2, idx[:, None, :], dpooled[:, None, :], axis=1)
    da2 = dh2 * (a2 > 0.0)
    b, pts, h = a2.shape
    h1f = h1.reshape(b * pts, h)
    da2f = da2.reshape(b * pts, h)
    dw2 = h1f.T @ da2f
    db2 = da2f.sum(axis=0)
    dh1 = da2 @ p.w2.T
    da1 = dh1 * (a1 > 0.0)
    xf = x.reshape(b * pts, 3)
    da1f = da1.reshape(b * pts, h)
    dw1 = xf.T @ da1f
    db1 = da1f.sum(axis=0)
    return EncoderParams(w1=dw1, b1=db1, w2=dw2, b2=db2, w3=dw3, b3=db3)


def _bytes(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _pass_bytes(params, x, upstream, normalize, work=None):
    """Embedding and gradient bytes of one lean forward plus backward."""
    e, cache = encode_with_cache(params, x, normalize, work)
    return _bytes(e, *backward(params, x, upstream, normalize, cache=cache).tensors())


# Each element of dw1, db1, dw2 and db2 lies within this fraction of its
# tensor's largest magnitude from the dense oracle's. Over 400 random shapes,
# the edge cases and the reference shapes, the largest seen was 6.3e-15.
_DENSE_RTOL = 1e-13


def _assert_matches_oracle(params, x, upstream, normalize, work=None):
    """One forward plus backward on ``work`` against the oracle: the
    embeddings, dw3 and db3 in every bit, the rest within ``_DENSE_RTOL``."""
    e, cache = encode_with_cache(params, x, normalize, work)
    grads = backward(params, x, upstream, normalize, cache=cache)
    expected = oracle_backward(params, x, upstream, normalize)
    assert _bytes(e, grads.w3, grads.b3) == _bytes(
        _forward(params, x, normalize)[0], expected.w3, expected.b3)
    for name in ("w1", "b1", "w2", "b2"):
        got, want = getattr(grads, name), getattr(expected, name)
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=0.0, err_msg=name,
                                   atol=_DENSE_RTOL * np.abs(want).max(initial=0.0))


# ---------------------------------------------------------------------------
# Forward


def test_init_params_deterministic_shapes():
    a = init_params(seed=5, hidden=12, dim=16)
    b = init_params(seed=5, hidden=12, dim=16)
    assert a.w1.shape == (3, 12) and a.w2.shape == (12, 12) and a.w3.shape == (12, 16)
    assert a.b1.shape == (12,) and a.b3.shape == (16,)
    np.testing.assert_array_equal(flatten_params(a), flatten_params(b))
    c = init_params(seed=6, hidden=12, dim=16)
    assert not np.array_equal(flatten_params(a), flatten_params(c))


def test_encode_normalized_rows_are_unit():
    params = init_params(seed=1, hidden=8, dim=10)
    out = encode(params, _scans(6, 20))
    assert out.shape == (6, 10)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    raw = encode(params, _scans(6, 20), normalize=False)
    norms = np.linalg.norm(raw, axis=1)
    assert not np.allclose(norms, 1.0)


def test_encode_is_permutation_invariant():
    # Max pooling over points: shuffling a scan's points changes nothing.
    params = init_params(seed=2, hidden=8, dim=6)
    scans = _scans(3, 30)
    shuffled = scans[:, ::-1, :].copy()
    np.testing.assert_array_equal(
        encode(params, scans), encode(params, shuffled)
    )


def test_encode_batch_matches_single_rows():
    params = init_params(seed=3, hidden=8, dim=6)
    scans = _scans(5, 12)
    full = encode(params, scans)
    rows = np.concatenate([encode(params, scans[i : i + 1]) for i in range(5)])
    np.testing.assert_allclose(full, rows, atol=1e-12)


def test_encode_with_cache_matches_encode():
    params = init_params(seed=4, hidden=8, dim=6)
    scans = _scans(4, 10)
    vectors, cache = encode_with_cache(params, scans)
    np.testing.assert_array_equal(vectors, encode(params, scans))
    assert cache is not None


# Reference shapes: encode's chunk holds CHUNK rows of (P, H) activations.
P, H, D = 160, 48, 32
CHUNK = _ENCODE_BUDGET // (P * H)


def _tied_scans(n, p, seed=0):
    # The second half of each scan repeats the first, so every maximum ties.
    scans = _scans(n, p, seed)
    scans[:, p // 2 :] = scans[:, : p // 2]
    return scans


def _biased(params, seed):
    # Nonzero biases; every third second-layer channel is negative at every
    # point, so it pools to 0 after the rectifier, and channel 1 is 0 at every
    # point, so all of its points tie.
    rng = np.random.default_rng(seed)
    w2, b2 = params.w2.copy(), rng.normal(0.0, 0.5, H)
    b2[::3] = -100.0
    w2[:, 1], b2[1] = 0.0, 0.0
    return dataclasses.replace(params, b1=rng.normal(0.0, 0.5, H), w2=w2, b2=b2)


# Besides the chunk edges: 64-66 and 131 rows, the edges of the earlier 65-row
# chunks, are 8 whole chunks, a folded 1-row tail, a 2-row tail and a 3-row tail.
@pytest.mark.parametrize("rows", [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 64, 65, 66, 131, 200])
@pytest.mark.parametrize("make", [_scans, _tied_scans], ids=["random", "tied"])
def test_encode_matches_training_forward_bit_for_bit(rows, make):
    # Snapshot (float32) weights, as the frozen teacher and evaluation use them;
    # zero biases as initialized, then biases with all-negative channels.
    scans = make(rows, P, seed=rows)
    params = init_params(seed=12, hidden=H, dim=D)
    for weights in (params, _biased(params, seed=rows)):
        weights = make_snapshot(weights, 0, "", True).params
        for normalize in (True, False):
            expected, _ = encode_with_cache(weights, scans, normalize)
            np.testing.assert_array_equal(encode(weights, scans, normalize), expected)


@pytest.mark.parametrize("pts", [P, 1])
@pytest.mark.parametrize("tail", [0, 1, 2])
def test_encode_on_a_list_of_scans_gives_the_array_bytes(pts, tail):
    # A list is stacked one chunk at a time; with a 1-row tail the last chunk
    # takes that row in. One row alone, and P = 1, run too.
    size = max(2, _ENCODE_BUDGET // (pts * H))
    params = make_snapshot(_biased(init_params(seed=5, hidden=H, dim=D), seed=5), 0, "", True).params
    for rows in (1, 2 * size + tail):
        scans = _tied_scans(rows, pts, seed=rows) if pts > 1 else _scans(rows, pts, seed=rows)
        for normalize in (True, False):
            expected = encode(params, scans, normalize).tobytes()
            assert encode(params, list(scans), normalize).tobytes() == expected, rows


def test_encode_refuses_a_list_of_unequal_scans():
    # The last chunk's scans have one point fewer than the first chunk's.
    scans = list(_scans(2 * CHUNK, P)) + list(_scans(CHUNK, P - 1))
    with pytest.raises(UsageError, match="have 159 points, the first has 160"):
        encode(init_params(seed=5, hidden=H, dim=D), scans)
    with pytest.raises(UsageError, match=r"must be \(B, P, 3\)"):
        encode(init_params(seed=5, hidden=H, dim=D), [])


def test_encode_chunks_are_bounded_and_never_single_rows():
    for rows in range(0, 3 * CHUNK + 3):
        bounds = _chunk_bounds(rows, P, H)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == rows
        assert sizes.max(initial=0) <= CHUNK + 1
        if rows > 1:
            assert sizes.min() >= 2


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(2, 12),
    copies=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=6),
    data=st.data(),
)
def test_encoder_is_permutation_invariant_including_ties(seed, n_points, copies, data):
    rng = np.random.default_rng(seed)
    scans = rng.uniform(-1.0, 1.0, (3, n_points, 3))
    for src, dst in copies:  # duplicated points make pooled maxima tie
        scans[:, dst % n_points] = scans[:, src % n_points]
    perm = np.array(data.draw(st.permutations(range(n_points))))
    shuffled = scans[:, perm]
    params = init_params(seed % 1000, hidden=6, dim=5)
    for normalize in (True, False):
        np.testing.assert_array_equal(
            encode(params, shuffled, normalize), encode(params, scans, normalize)
        )

    # Training forward: pooling routes to the lowest point index holding the
    # maximum, so gradients agree under any permutation.
    e, cache = encode_with_cache(params, shuffled)
    np.testing.assert_array_equal(e, encode(params, scans))
    h2 = np.maximum(_forward(params, shuffled, True)[1][4], 0.0)
    for b in range(h2.shape[0]):
        for c in range(h2.shape[2]):
            col = h2[b, :, c]
            assert cache.idx[b, c] == np.flatnonzero(col == col.max()).min()
    probe = rng.normal(size=e.shape)
    a = _grads(params, scans, probe)
    g = backward(params, shuffled, probe, cache=cache)
    for ta, tg in zip(a.tensors(), g.tensors()):
        np.testing.assert_allclose(tg, ta, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Backward


def test_backward_matches_finite_differences():
    params = init_params(seed=9, hidden=6, dim=5)
    scans = _scans(4, 9, seed=9)
    rng = np.random.default_rng(1)
    probe = rng.normal(size=(4, 5))

    def objective(vec):
        p = unflatten_params(vec, hidden=6, dim=5)
        return float(np.sum(probe * encode(p, scans)))

    grads = _grads(params, scans, probe)
    analytic = np.concatenate(
        [np.asarray(g, dtype=np.float64).ravel() for g in (grads.w1, grads.b1, grads.w2, grads.b2, grads.w3, grads.b3)]
    )
    x = flatten_params(params)
    eps = 1e-6
    numeric = np.empty_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += eps
        lo[i] -= eps
        numeric[i] = (objective(hi) - objective(lo)) / (2 * eps)
    np.testing.assert_allclose(analytic, numeric, atol=1e-6, rtol=1e-5)


def test_backward_accepts_cache():
    # A cache on a step's pass gives the gradients of a fresh forward.
    params = init_params(seed=9, hidden=6, dim=5)
    scans = _scans(4, 9, seed=9)
    upstream = np.ones((4, 5))
    _assert_matches_oracle(params, scans, upstream, True, TrainPass())
    assert _pass_bytes(params, scans, upstream, True, TrainPass()) == _pass_bytes(
        params, scans, upstream, True)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    b=st.integers(1, 20),
    pts=st.integers(1, 12),
    hidden=st.integers(1, 8),
    dim=st.integers(2, 5),  # encoder.dim: must be >= 2
    quantize=st.booleans(),
    copies=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=6),
    bias_shift=st.sampled_from([0.0, -0.5, -3.0]),
    dead=st.booleans(),
)
def test_lean_pass_matches_oracle_bytes(seed, b, pts, hidden, dim, quantize, copies,
                                        bias_shift, dead):
    # tobytes, so the sign of every zero counts. Quantised and duplicated
    # points tie the pooling maxima; negative biases pool channels to 0, and
    # ``dead`` makes one first-layer channel zero at every point.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (b, pts, 3))
    if quantize:
        x = np.round(x * 2.0) / 2.0
    for src, dst in copies:
        x[:, dst % pts] = x[:, src % pts]
    base = init_params(seed % 1000, hidden, dim)
    shift = bias_shift * rng.uniform(0.0, 1.0, hidden)
    b1 = base.b1 + shift
    b1[0] -= 10.0 if dead else 0.0
    params = EncoderParams(base.w1, b1, base.w2, base.b2 + shift, base.w3,
                           rng.normal(size=dim))
    upstream = rng.normal(size=(b, dim))
    work = TrainPass()
    for normalize in (True, False):
        _assert_matches_oracle(params, x, upstream, normalize)
        _assert_matches_oracle(params, x, upstream, normalize, work)


def _edge_case(name):
    """(params, scans, upstream) of one shape the winner-row pass must keep exact."""
    rng = np.random.default_rng(21)
    if name == "one point":  # every product of the pass is one row
        params, x = init_params(21, 8, 5), _scans(6, 1, seed=21)
    elif name == "one channel":  # an (N, 1) axis-0 sum is pairwise
        base = init_params(21, 1, 5)  # a live channel, and b1 leaves h1 > 0 on some points
        params = dataclasses.replace(base, w2=np.abs(base.w2), b1=np.array([0.1]))
        x = _scans(40, 9, seed=21)
    elif name == "one winner":  # every channel ties on every point, so all pick point 0
        params, x = init_params(21, 8, 5), np.repeat(_scans(1, 1, seed=21), 9, axis=1)
    elif name == "all dead":
        # Every channel pools to 0, at point 0. Without normalization dpooled
        # is negative everywhere, so every gradient that reaches da2 is -0.0.
        base = init_params(21, 8, 5)
        params = dataclasses.replace(base, b2=np.full(8, -100.0), w3=-np.abs(base.w3))
        x = _scans(6, 9, seed=21)
        return params, x, np.abs(rng.normal(size=(6, 5)))
    else:  # the reference shape: biased weights, tied maxima and dead channels
        params = _biased(init_params(21, H, D), seed=21)
        x = _tied_scans(64, P, seed=21)
    return params, x, rng.normal(size=(len(x), params.out_dim))


@pytest.mark.parametrize("name", ["one point", "one channel", "one winner", "all dead",
                                  "reference"])
def test_winner_rows_match_oracle_bytes_at_edge_shapes(name):
    params, x, upstream = _edge_case(name)
    for normalize in (True, False):
        _assert_matches_oracle(params, x, upstream, normalize)
        _assert_matches_oracle(params, x, upstream, normalize, TrainPass())


# Shapes at which OpenBLAS 0.3.31 on an AVX-512 Xeon gives the channel-major
# product other bits than the row-major one, and small winner-row products
# other kernels than large ones.
@pytest.mark.parametrize("b, pts, hidden", [(22, 5, 62), (12, 9, 53), (10, 24, 33), (8, 17, 28)])
def test_pass_is_exact_where_blas_reorders_small_products(b, pts, hidden):
    rng = np.random.default_rng(b * pts)
    params = init_params(b + hidden, hidden, 7)
    params = dataclasses.replace(params, b1=rng.normal(0.0, 0.3, hidden))
    x = _scans(b, pts, seed=hidden)
    upstream = rng.normal(size=(b, 7))
    for normalize in (True, False):
        _assert_matches_oracle(params, x, upstream, normalize)


def test_pass_reuse_across_shapes_matches_fresh_pass():
    # Batches grow (16 -> 64 at the reference shapes) and shrink; one pass
    # object serves each shape with the bytes of a fresh pass.
    params = init_params(seed=13, hidden=H, dim=D)
    rng = np.random.default_rng(13)
    work = TrainPass()
    for b, pts in ((64, 40), (16, 40), (70, 40), (16, 58)):
        x = _tied_scans(b, pts, seed=b + pts)
        upstream = rng.normal(size=(b, D))
        assert _pass_bytes(params, x, upstream, True, work) == _pass_bytes(
            params, x, upstream, True
        )


def test_backward_refuses_stale_cache():
    params = init_params(seed=14, hidden=6, dim=5)
    work = TrainPass()
    _, first = encode_with_cache(params, _scans(4, 9, seed=1), True, work)
    x = _scans(4, 9, seed=2)
    _, second = encode_with_cache(params, x, True, work)
    with pytest.raises(UsageError, match="stale"):
        backward(params, x, np.ones((4, 5)), cache=first)
    backward(params, x, np.ones((4, 5)), cache=second)


def test_backward_twice_on_one_cache_gives_equal_bytes():
    params = init_params(seed=15, hidden=H, dim=D)
    x = _tied_scans(16, 40, seed=15)
    upstream = np.random.default_rng(15).normal(size=(16, D))
    for work in (None, TrainPass()):
        _, cache = encode_with_cache(params, x, True, work)
        first = backward(params, x, upstream, cache=cache)
        second = backward(params, x, upstream, cache=cache)
        assert _bytes(*first.tensors()) == _bytes(*second.tensors())
        _assert_matches_oracle(params, x, upstream, True, work)


def test_backward_checks_its_arguments_against_the_cache():
    params = init_params(seed=16, hidden=6, dim=5)
    x = _scans(4, 9)
    _, cache = encode_with_cache(params, x, True)
    with pytest.raises(UsageError):
        backward(params, x, np.ones((4, 5)), False, cache=cache)
    with pytest.raises(UsageError):
        backward(params, x[:3], np.ones((4, 5)), cache=cache)
    with pytest.raises(UsageError, match="upstream"):
        backward(params, x, np.ones((4, 4)), cache=cache)


# ---------------------------------------------------------------------------
# Optimizer


def test_adam_step_moves_against_gradient():
    params = init_params(seed=0, hidden=4, dim=4)
    scans = _scans(2, 6)
    grads = _grads(params, scans, np.ones((2, 4)))
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(params, grads, state, lr=1e-2)
    assert not np.array_equal(flatten_params(new_params), flatten_params(params))
    assert new_state.t == 1


def test_adam_weight_decay_is_decoupled():
    # Zero gradient, nonzero decay: parameters shrink, moments stay zero.
    params = init_params(seed=0, hidden=4, dim=4)
    zero = _grads(params, _scans(2, 6), np.zeros((2, 4)))
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(params, zero, state, lr=0.1, weight_decay=0.01)
    np.testing.assert_allclose(new_params.w1, params.w1 * (1 - 0.1 * 0.01), atol=1e-15)
    np.testing.assert_array_equal(new_state.m, 0.0)


def oracle_adam_step(params, grads, moments, t, lr, weight_decay=0.0, beta1=0.9,
                     beta2=0.999, eps=1e-8):
    """Adam as it was before the flat in-place moments: one tensor at a time."""
    t += 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    new_p, new_m, new_v = [], [], []
    for pt, gt, mt, vt in zip(params.tensors(), grads.tensors(), *moments):
        pt = pt - lr * weight_decay * pt
        m = beta1 * mt + (1.0 - beta1) * gt
        v = beta2 * vt + (1.0 - beta2) * gt * gt
        pt = pt - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        new_p.append(pt)
        new_m.append(m)
        new_v.append(v)
    return EncoderParams(*new_p), (new_m, new_v), t


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_adam_step_matches_per_tensor_oracle_bytes(weight_decay):
    rng = np.random.default_rng(17)
    params = init_params(seed=17, hidden=H, dim=D)
    expected, moments, t = params, (tuple(np.zeros_like(a) for a in params.tensors()),) * 2, 0
    state = AdamState.zeros_like(params)
    for step in range(6):
        grads = EncoderParams(*(rng.normal(size=a.shape) * (rng.uniform(size=a.shape) < 0.7)
                                for a in params.tensors()))
        lr = 1e-3 if step < 4 else 1e-4
        params, state = adam_step(params, grads, state, lr=lr, weight_decay=weight_decay)
        expected, moments, t = oracle_adam_step(expected, grads, moments, t, lr, weight_decay)
        assert _bytes(*params.tensors()) == _bytes(*expected.tensors())
        assert state.m.tobytes() == np.concatenate([a.ravel() for a in moments[0]]).tobytes()
        assert state.v.tobytes() == np.concatenate([a.ravel() for a in moments[1]]).tobytes()
        assert state.t == t


def test_adam_rejects_non_finite_gradient_by_name():
    params = init_params(seed=0, hidden=4, dim=4)
    grads = EncoderParams(*(np.zeros_like(a) for a in params.tensors()))
    grads.w2[1, 2] = np.nan
    with pytest.raises(TrainingError, match="non-finite gradient in w2"):
        adam_step(params, grads, AdamState.zeros_like(params), lr=1e-3)


def test_flatten_unflatten_roundtrip():
    params = init_params(seed=8, hidden=7, dim=9)
    vec = flatten_params(params)
    back = unflatten_params(vec, hidden=7, dim=9)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        np.testing.assert_array_equal(getattr(back, name), getattr(params, name))
    with pytest.raises(UsageError):
        unflatten_params(vec[:-1], hidden=7, dim=9)


# ---------------------------------------------------------------------------
# Snapshots


def test_snapshot_roundtrip_bit_exact(tmp_path):
    params = init_params(seed=11, hidden=6, dim=8)
    snap = make_snapshot(params, step_index=3, config_digest="abc123", normalize=True)
    assert snap.params.w1.dtype == np.dtype("<f4")
    path = save_snapshot(snap, tmp_path / "model.snap")
    loaded = load_snapshot(path)
    assert loaded.step_index == 3
    assert loaded.config_digest == "abc123"
    assert loaded.normalize is True
    assert params_digest(loaded.params) == params_digest(snap.params)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        np.testing.assert_array_equal(getattr(loaded.params, name), getattr(snap.params, name))


def test_params_digest_tracks_content():
    a = init_params(seed=1, hidden=4, dim=4)
    b = init_params(seed=1, hidden=4, dim=4)
    assert params_digest(a) == params_digest(b)
    c = EncoderParams(a.w1 + 1e-3, a.b1, a.w2, a.b2, a.w3, a.b3)
    assert params_digest(a) != params_digest(c)


def test_load_snapshot_missing_file(tmp_path):
    with pytest.raises(UsageError):
        load_snapshot(tmp_path / "nope.snap")
