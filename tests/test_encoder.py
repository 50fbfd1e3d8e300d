"""Point-set encoder: forward, gradients, optimizer, and snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse.encoder import (
    _ENCODE_BUDGET,
    _chunk_bounds,
    AdamState,
    EncoderParams,
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
from rankfuse.errors import UsageError


def _scans(n, p, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (n, p, 3))


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


@pytest.mark.parametrize("rows", [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 200])
@pytest.mark.parametrize("make", [_scans, _tied_scans], ids=["random", "tied"])
def test_encode_matches_training_forward_bit_for_bit(rows, make):
    # Snapshot (float32) weights, as the frozen teacher and evaluation use them.
    params = make_snapshot(init_params(seed=12, hidden=H, dim=D), 0, "", True).params
    scans = make(rows, P, seed=rows)
    for normalize in (True, False):
        expected, _ = encode_with_cache(params, scans, normalize)
        np.testing.assert_array_equal(encode(params, scans, normalize), expected)


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
    h2 = np.maximum(cache[4], 0.0)
    idx = cache[5]
    for b in range(h2.shape[0]):
        for c in range(h2.shape[2]):
            col = h2[b, :, c]
            assert idx[b, c] == np.flatnonzero(col == col.max()).min()
    probe = rng.normal(size=e.shape)
    a = backward(params, scans, probe)
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

    grads = backward(params, scans, upstream=probe)
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
    params = init_params(seed=9, hidden=6, dim=5)
    scans = _scans(4, 9, seed=9)
    upstream = np.ones((4, 5))
    _, cache = encode_with_cache(params, scans)
    a = backward(params, scans, upstream)
    b = backward(params, scans, upstream, cache=cache)
    np.testing.assert_array_equal(a.w1, b.w1)
    np.testing.assert_array_equal(a.b3, b.b3)


# ---------------------------------------------------------------------------
# Optimizer


def test_adam_step_moves_against_gradient():
    params = init_params(seed=0, hidden=4, dim=4)
    scans = _scans(2, 6)
    grads = backward(params, scans, upstream=np.ones((2, 4)))
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(params, grads, state, lr=1e-2)
    assert not np.array_equal(flatten_params(new_params), flatten_params(params))
    assert new_state.t == 1


def test_adam_weight_decay_is_decoupled():
    # Zero gradient, nonzero decay: parameters shrink, moments stay zero.
    params = init_params(seed=0, hidden=4, dim=4)
    zero = backward(params, _scans(2, 6), upstream=np.zeros((2, 4)))
    state = AdamState.zeros_like(params)
    new_params, new_state = adam_step(params, zero, state, lr=0.1, weight_decay=0.01)
    np.testing.assert_allclose(new_params.w1, params.w1 * (1 - 0.1 * 0.01), atol=1e-15)
    np.testing.assert_array_equal(new_state.m.w1, 0.0)


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
