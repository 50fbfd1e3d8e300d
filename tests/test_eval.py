"""Exact retrieval, recall matrices, forgetting, fusion, and result files."""

import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import rankfuse.evaluation as evaluation_mod
from rankfuse.config import load_config
from rankfuse.continual import build_protocol_data, run_protocol
from rankfuse.encoder import init_params, make_snapshot
from rankfuse.errors import ConfigurationError, UsageError
from rankfuse.evaluation import (
    dump_results,
    embed,
    embed_protocol,
    evaluate_protocol,
    forgetting_score,
    recall_at_n,
    results_dict,
    write_recall_csv,
)

from conftest import tiny_domain
from test_config import SMOKE


def _snapshot(seed=0, hidden=8, dim=8, step=0):
    return make_snapshot(init_params(seed, hidden, dim), step, "cfg", normalize=True)


def _scans(samples):
    return [s.scan.points for s in samples]


def _arrays(snapshots, samples):
    """Embeddings, poses and sample ids: the per-split inputs of recall_at_n."""
    poses = np.stack([s.pose for s in samples])
    return embed(snapshots, _scans(samples)), poses, np.array([s.sample_id for s in samples])


def _recall(snapshots, db, queries, n=1, pos_test=25.0):
    db_emb, db_poses, db_ids = _arrays(snapshots, db)
    q_emb, q_poses, _ = _arrays(snapshots, queries)
    return recall_at_n(db_emb, db_poses, db_ids, q_emb, q_poses, pos_test, n)


@pytest.fixture(scope="module")
def db_samples():
    return tiny_domain(n_places=25, seed=3, points=24)


@pytest.fixture(scope="module")
def query_samples():
    return tiny_domain(n_places=25, seed=3, session=1, points=24)


# ---------------------------------------------------------------------------
# Database embedding (the index that queries rank against)


def test_build_index_shapes(db_samples):
    assert embed([_snapshot()], _scans(db_samples)).shape == (25, 8)
    assert embed([_snapshot(0), _snapshot(1, step=1)], _scans(db_samples)).shape == (25, 16)


# ---------------------------------------------------------------------------
# Retrieval: how recall_at_n ranks database rows for each query


def test_retrieve_orders_by_distance():
    # Rows at embedding distance 3, 1, 2 from the query; only the farthest
    # lies within the positive radius, so it ranks third.
    db_emb = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    db_poses = np.array([[0.0, 0.0], [9e4, 9e4], [9e4, 9e4]])

    def at(n):
        return recall_at_n(db_emb, db_poses, np.arange(3), np.zeros((1, 2)),
                           np.zeros((1, 2)), 25.0, n).percent

    assert [at(n) for n in (1, 2, 3)] == [0.0, 0.0, 100.0]


def test_retrieve_breaks_ties_by_lowest_sample_id():
    # Both database rows tie at distance 0 from the query; only the first
    # lies within the positive radius, so Recall@1 shows which row won.
    db_emb = np.zeros((2, 4))
    db_poses = np.array([[0.0, 0.0], [9e4, 9e4]])

    def at_one(ids):
        return recall_at_n(db_emb, db_poses, np.array(ids), np.zeros((1, 4)),
                           np.zeros((1, 2)), 25.0, 1).percent

    assert at_one([3, 7]) == 100.0
    assert at_one([7, 3]) == 0.0  # lowest id wins, not the first row


def test_retrieve_truncates_when_k_exceeds_database(db_samples):
    # n beyond the database size ranks the whole database.
    outcome = _recall([_snapshot()], db_samples[:4], db_samples[:4], n=10)
    assert outcome.percent == 100.0
    assert outcome.evaluated == 4


def test_retrieve_rejects_bad_k(db_samples):
    db_emb, poses, ids = _arrays([_snapshot()], db_samples)
    for n in (0, -3):
        with pytest.raises(UsageError, match="n must be >= 1"):
            recall_at_n(db_emb, poses, ids, db_emb, poses, 25.0, n)


# ---------------------------------------------------------------------------
# Recall@N


def test_recall_at_one_identical_sessions_is_perfect(db_samples):
    # Query the database with itself: nearest neighbor is the sample itself.
    outcome = _recall([_snapshot()], db_samples, db_samples)
    assert outcome.percent == 100.0
    assert outcome.evaluated == 25
    assert outcome.excluded == 0


def test_recall_excludes_queries_without_true_positive(db_samples, query_samples):
    # Teleport two queries far outside the trajectory loop.
    far = [
        dataclasses.replace(query_samples[i], pose=np.array([9e4, 9e4]))
        for i in (0, 1)
    ]
    outcome = _recall([_snapshot()], db_samples, far + list(query_samples[2:]))
    assert outcome.excluded == 2
    assert outcome.evaluated == 23


def test_recall_all_excluded_is_an_error(db_samples, query_samples):
    far = [
        dataclasses.replace(s, pose=np.array([9e4, 9e4])) for s in query_samples
    ]
    with pytest.raises(UsageError):
        _recall([_snapshot()], db_samples, far)


def test_recall_monotonic_in_n(db_samples, query_samples):
    values = [
        _recall([_snapshot()], db_samples, query_samples, n=n).percent
        for n in (1, 3, 5, 25)
    ]
    assert values == sorted(values)


def test_recall_invariant_to_database_order(db_samples, query_samples):
    rng = np.random.default_rng(0)
    shuffled = [db_samples[i] for i in rng.permutation(len(db_samples))]
    a = _recall([_snapshot()], db_samples, query_samples)
    b = _recall([_snapshot()], shuffled, query_samples)
    assert a.percent == b.percent


def test_recall_rejects_empty_or_bad_n(db_samples, query_samples):
    db_emb, poses, ids = _arrays([_snapshot()], db_samples)
    with pytest.raises(UsageError, match="empty"):
        recall_at_n(db_emb, poses, ids, np.empty((0, 8)), np.empty((0, 2)), 25.0, 1)
    with pytest.raises(UsageError, match="n must be"):
        recall_at_n(db_emb, poses, ids, db_emb, poses, 25.0, 0)


def test_recall_rejects_non_finite_embeddings(db_samples):
    db_emb, poses, ids = _arrays([_snapshot()], db_samples)
    bad = db_emb.copy()
    bad[3, 0] = np.nan
    with pytest.raises(UsageError, match="finite"):
        recall_at_n(bad, poses, ids, db_emb, poses, 25.0, 1)
    with pytest.raises(UsageError, match="finite"):
        recall_at_n(db_emb, poses, ids, bad, poses, 25.0, 1)


def lexsort_recall(db_emb, db_poses, db_ids, q_emb, q_poses, pos_test, n):
    """The oracle: scipy distances and a full (distance, sample id) lexsort per query."""
    dists = cdist(q_emb, db_emb)
    is_pos = cdist(q_poses, db_poses) < pos_test
    hits = evaluated = excluded = 0
    top = min(n, db_emb.shape[0])
    for i in range(len(q_emb)):
        if not is_pos[i].any():
            excluded += 1
            continue
        evaluated += 1
        order = np.lexsort((db_ids, dists[i]))[:top]
        if is_pos[i, order].any():
            hits += 1
    if evaluated == 0:
        raise UsageError("every query lacked a true positive in the database")
    return 100.0 * hits / evaluated, evaluated, excluded


@pytest.mark.parametrize("dim", [2, 32, 64])
def test_distance_matches_cdist_bit_for_bit(dim):
    c = evaluation_mod._DIST_ROWS
    rng = np.random.default_rng(dim)
    for rows in (1, c - 1, c, c + 1, 2 * c + 1):
        for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            a = rng.normal(0.0, scale, (rows, dim))
            b = rng.normal(0.0, scale, (40, dim))
            b[:3] = a[:3] if rows >= 3 else a[0]  # duplicate rows: exact zeros
            out = evaluation_mod.euclidean(a, b)
            assert np.array_equal(out, cdist(a, b)), (rows, scale)
            assert (out == 0.0).any()
            # The screen's exact pass: chosen rows of b for each row of a.
            cols = rng.integers(0, len(b), (rows, 7))
            picked = evaluation_mod.euclidean(a, b, cols)
            assert np.array_equal(picked, out[np.arange(rows)[:, None], cols]), (rows, scale)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 24),
    q=st.integers(1, 16),
    dim=st.integers(1, 4),
    levels=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_recall_matches_lexsort_oracle(m, q, dim, levels, seed):
    # Embeddings on a coarse integer grid tie exactly; poses on a 10 m grid
    # with a 15 m radius leave some queries without a true positive.
    rng = np.random.default_rng(seed)
    db_emb = rng.integers(0, levels + 1, (m, dim)).astype(float)
    q_emb = rng.integers(0, levels + 1, (q, dim)).astype(float)
    db_poses = 10.0 * rng.integers(0, 4, (m, 2))
    q_poses = 10.0 * rng.integers(0, 5, (q, 2))
    ids = rng.permutation(3 * m)[:m]
    for n in sorted({1, 5, m, m + 3}):
        args = (db_emb, db_poses, ids, q_emb, q_poses, 15.0, n)
        try:
            expected = lexsort_recall(*args)
        except UsageError:
            with pytest.raises(UsageError, match="true positive"):
                recall_at_n(*args)
            continue
        out = recall_at_n(*args)
        assert (out.percent, out.evaluated, out.excluded) == expected, n


def _nudge(rng, x):
    """x with each element moved 0, 1 or 2 ulps, up or down."""
    toward = rng.choice([-np.inf, np.inf], x.shape)
    for _ in range(2):
        x = np.where(rng.random(x.shape) < 0.5, np.nextafter(x, toward), x)
    return x


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(200, 1000),
    dim=st.sampled_from([1, 32, 64]),
    scale=st.sampled_from([1.0, 1e-160, 1e155]),
    seed=st.integers(0, 2**32 - 1),
)
def test_screened_recall_matches_lexsort_oracle(m, dim, scale, seed):
    # Unit rows, half of them ulp-nudged twins of the first eighth, and queries
    # nudged off those rows: every query has near-ties at other poses, which
    # the screen must all keep. At scale 1e-160 the squares go subnormal, at
    # 1e155 they overflow. n reaches past the database.
    rng = np.random.default_rng(seed)
    db_emb = rng.normal(size=(m, dim))
    db_emb /= np.linalg.norm(db_emb, axis=1, keepdims=True)
    db_emb[m // 2 :] = _nudge(rng, db_emb[rng.integers(0, m // 8, m - m // 2)])
    q_emb = _nudge(rng, db_emb[rng.integers(0, m // 8, 100)])
    db_poses = 10.0 * rng.integers(0, 6, (m, 2))
    q_poses = 10.0 * rng.integers(0, 6, (len(q_emb), 2))
    ids = rng.permutation(2 * m)[:m]
    for n in (1, 5, m, m + 3):
        args = (scale * db_emb, db_poses, ids, scale * q_emb, q_poses, 15.0, n)
        out = recall_at_n(*args)
        assert (out.percent, out.evaluated, out.excluded) == lexsort_recall(*args), n
    # One query at a time, too: then no other query's near-ties widen its
    # candidate set.
    for i in range(8):
        args = (scale * db_emb, db_poses, ids, scale * q_emb[i : i + 1], q_poses[i : i + 1], 15.0, 1)
        try:
            expected = lexsort_recall(*args)
        except UsageError:
            continue
        out = recall_at_n(*args)
        assert (out.percent, out.evaluated, out.excluded) == expected, i


def whole_matrix_recall(db_emb, db_poses, db_ids, q_emb, q_poses, pos_test, n):
    """The byte oracle of the query blocks: recall_at_n as one pass over every
    (query, database) pair, before it ran in blocks."""
    q = np.asarray(q_emb, dtype=np.float64)
    db = np.asarray(db_emb, dtype=np.float64)
    is_pos = evaluation_mod.euclidean(q_poses, db_poses) < pos_test
    evaluated = int(is_pos.any(axis=1).sum())
    excluded = len(q) - evaluated
    top = min(n, len(db))
    cols = evaluation_mod._screen(q, db, top)
    dists = evaluation_mod.euclidean(q, db, cols)
    is_pos = np.take_along_axis(is_pos, cols, axis=1)
    kth = np.partition(dists, top - 1, axis=1)[:, top - 1 : top]
    closer = dists < kth
    tied = dists == kth
    n_tied = tied.sum(axis=1)
    tied_pos = (tied & is_pos).sum(axis=1)
    all_in = top - closer.sum(axis=1) == n_tied
    hit = (closer & is_pos).any(axis=1) | ((tied_pos > 0) & (all_in | (tied_pos == n_tied)))
    for i in np.flatnonzero(~hit & (tied_pos > 0)):
        order = np.lexsort((np.asarray(db_ids)[cols[i]], dists[i]))[:top]
        hit[i] = is_pos[i, order].any()
    if evaluated == 0:
        raise UsageError("every query lacked a true positive in the database")
    return 100.0 * int(hit.sum()) / evaluated, evaluated, excluded


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(1, 40),
    q=st.integers(1, 60),
    dim=st.integers(1, 6),
    levels=st.integers(1, 3),
    budget=st.integers(1, 200),
    copies=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_query_blocks_match_whole_matrix_oracle_bytes(m, q, dim, levels, budget, copies, seed):
    # Grid embeddings tie exactly, copied rows duplicate database rows, and
    # far poses exclude queries. A budget below the database size makes
    # one-row blocks; any budget under q * m makes more than one block.
    rng = np.random.default_rng(seed)
    db_emb = rng.integers(0, levels + 1, (m, dim)) / levels
    db_emb[rng.integers(0, m, copies)] = db_emb[rng.integers(0, m, copies)]
    q_emb = np.concatenate([db_emb[rng.integers(0, m, q // 2)],
                            rng.integers(0, levels + 1, (q - q // 2, dim)) / levels])
    db_poses = 10.0 * rng.integers(0, 4, (m, 2))
    q_poses = 10.0 * rng.integers(0, 6, (q, 2))
    ids = rng.permutation(3 * m)[:m]
    for n in sorted({1, 2, 5, m, m + 3}):
        args = (db_emb, db_poses, ids, q_emb, q_poses, 15.0, n)
        try:
            expected = whole_matrix_recall(*args)
        except UsageError:
            expected = None
        with mock.patch.object(evaluation_mod, "_QUERY_BUDGET", budget):
            if expected is None:
                with pytest.raises(UsageError, match="true positive"):
                    recall_at_n(*args)
                continue
            out = recall_at_n(*args)
        assert (out.percent, out.evaluated, out.excluded) == expected, n
        assert out.percent.hex() == expected[0].hex()


def test_recall_peak_memory_is_bounded_by_a_block():
    # 2000 x 2000: one (query, database) float64 matrix is 32 MB, and the
    # whole-matrix pass peaked at 72 MB. A block's matrices hold 49,152
    # elements (384 KB) each; the bound leaves room for four of them. It reads
    # about 980,000 B, and about 2,510,000 B with 131,072-element blocks.
    rng = np.random.default_rng(0)
    m, dim = 2000, 32
    db = rng.normal(size=(m, dim))
    db /= np.linalg.norm(db, axis=1, keepdims=True)
    q = db + rng.normal(scale=0.05, size=db.shape)
    poses = np.cumsum(rng.uniform(0.0, 2.0, (m, 2)), axis=0)
    q_poses = poses + rng.normal(scale=2.0, size=poses.shape)
    tracemalloc.start()
    try:
        out = recall_at_n(db, poses, np.arange(m), q, q_poses, 25.0, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * 49_152, peak
    assert out.evaluated == m and out.percent > 90.0


# ---------------------------------------------------------------------------
# Forgetting


def test_forgetting_three_task_fixture():
    # Rows = after step l, columns = tasks; last-task columns of earlier rows
    # never enter the score, so their placeholder values are irrelevant.
    r = [[90.0, 40.0, 0.0], [80.0, 70.0, 0.0], [75.0, 65.0, 60.0]]
    report = forgetting_score(r, mode="printed")
    assert report.score == 10.0
    assert report.per_task_drops == [15.0, 5.0]


def test_forgetting_placeholder_cells_do_not_matter():
    a = [[90.0, 40.0, 17.0], [80.0, 70.0, -3.0], [75.0, 65.0, 60.0]]
    assert forgetting_score(a).score == 10.0


def test_forgetting_shift_invariance():
    r = np.array([[90.0, 40.0, 0.0], [80.0, 70.0, 0.0], [75.0, 65.0, 60.0]])
    assert forgetting_score(r + 8.0).score == forgetting_score(r).score == 10.0


def test_forgetting_from_t_mode():
    # printed takes the max over rows 0..t; from_t only over rows t..T-2.
    r = [[90.0, 40.0, 0.0], [50.0, 70.0, 0.0], [45.0, 65.0, 60.0]]
    assert forgetting_score(r, mode="printed").score == pytest.approx(25.0)
    assert forgetting_score(r, mode="from_t").score == pytest.approx(
        ((90.0 - 45.0) + (70.0 - 65.0)) / 2
    )


def test_forgetting_can_be_negative():
    r = [[50.0, 0.0], [70.0, 80.0]]
    assert forgetting_score(r).score == -20.0


def test_forgetting_input_validation():
    with pytest.raises(UsageError):
        forgetting_score([[50.0]])
    with pytest.raises(UsageError):
        forgetting_score([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ConfigurationError):
        forgetting_score(np.eye(3), mode="best")


# ---------------------------------------------------------------------------
# Fusion


def test_fusing_identical_snapshots_preserves_ranking(db_samples, query_samples):
    snap = _snapshot()
    single = embed([snap], _scans(db_samples))
    fused = embed([snap, snap], _scans(db_samples))
    q_single = embed([snap], _scans(query_samples[:5]))
    q_fused = embed([snap, snap], _scans(query_samples[:5]))
    # Concatenating a vector with itself doubles squared distances.
    np.testing.assert_allclose(
        cdist(q_fused, fused), math.sqrt(2.0) * cdist(q_single, single), rtol=1e-6
    )
    one = _recall([snap], db_samples, query_samples)
    two = _recall([snap, snap], db_samples, query_samples)
    assert one.percent == two.percent


def test_fusing_distinct_snapshots_changes_embedding_dim(db_samples):
    fused = embed([_snapshot(0), _snapshot(1, step=1)], _scans(db_samples))
    assert fused.shape[1] == 16


# ---------------------------------------------------------------------------
# Whole-protocol evaluation


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    cfg = load_config(SMOKE)
    out = tmp_path_factory.mktemp("run")
    data = build_protocol_data(cfg)
    snapshots, _ = run_protocol(cfg, 0, data[0], out_dir=out, digest="d")
    return cfg, data, snapshots


@pytest.fixture(scope="module")
def smoke_emb(smoke_run):
    _, data, snapshots = smoke_run
    return embed_protocol(snapshots, *data[1:])


def test_evaluate_protocol_matrix_layout(smoke_run, smoke_emb):
    ev = evaluate_protocol(smoke_emb, smoke_run[0], fusion=False)
    assert ev.recall_matrix.shape == (2, 2)
    # Zero-shot cell: task 1 scored by the step-0 model before training on it.
    assert np.isfinite(ev.recall_matrix[0, 1])
    assert ev.mean_recall_at_1 == pytest.approx(ev.recall_matrix[1].mean())
    assert ev.forgetting is not None
    assert len(ev.cells) == 4
    assert ev.cells[0]["embedding_dim"] == 16


def test_evaluate_protocol_fused_rows(smoke_run, smoke_emb):
    ev = evaluate_protocol(smoke_emb, smoke_run[0], fusion=True)
    dims = {(c["step"], c["task"]): c["embedding_dim"] for c in ev.cells}
    assert dims[(0, 0)] == 16  # row 0: first snapshot alone
    assert dims[(1, 0)] == 32  # row 1: steps 0 and 1 concatenated


def test_evaluate_protocol_single_step_has_no_forgetting(smoke_run):
    cfg, data, snapshots = smoke_run
    ev = evaluate_protocol(embed_protocol(snapshots[:1], *data[1:]), cfg, fusion=False)
    assert ev.recall_matrix.shape == (1, 1)
    assert ev.forgetting is None


# ---------------------------------------------------------------------------
# Result files


def test_results_dict_layout(smoke_run, smoke_emb):
    single = evaluate_protocol(smoke_emb, smoke_run[0], fusion=False)
    fused = evaluate_protocol(smoke_emb, smoke_run[0], fusion=True)
    d = results_dict(single, fused, seed=0, config_digest="abc")
    assert set(d) == {"recall_matrix", "mean_recall_at_1", "forgetting", "per_step_details"}
    assert d["recall_matrix"] == [[float(v) for v in row] for row in fused.recall_matrix]
    details = d["per_step_details"]
    assert details["seed"] == 0
    assert details["config_digest"] == "abc"
    assert details["headline_mode"] == "fused"
    assert details["single"]["mean_recall_at_1"] == single.mean_recall_at_1
    assert details["fused"]["forgetting"] == fused.forgetting.score


def test_results_dict_single_mode(smoke_run, smoke_emb):
    single = evaluate_protocol(smoke_emb, smoke_run[0], fusion=False)
    d = results_dict(single, None, seed=3, config_digest="abc")
    assert d["per_step_details"]["headline_mode"] == "single"
    assert d["per_step_details"]["fused"] is None
    assert d["per_step_details"]["notes"] == ""


def test_dump_results_is_canonical(smoke_run, smoke_emb):
    single = evaluate_protocol(smoke_emb, smoke_run[0], fusion=False)
    d = results_dict(single, None, seed=0, config_digest="abc")
    text = dump_results(d)
    assert text == dump_results(json.loads(text))  # stable under roundtrip
    assert text.endswith("\n")
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def test_write_recall_csv_layout(tmp_path):
    path = tmp_path / "m.csv"
    write_recall_csv(np.array([[90.0, 40.0], [80.0, 85.5]]), ["plains", "depot"], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,plains,depot"
    assert lines[1] == "0,90.0,40.0"
    assert lines[2] == "1,80.0,85.5"
