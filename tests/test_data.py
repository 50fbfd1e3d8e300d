"""Synthetic corpus generation, pair labeling, and the on-disk format."""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from rankfuse.continual import batch_relation
from rankfuse.corpus import load_corpus, save_corpus
from rankfuse.data import (
    FRAME_XY,
    FRAME_Z,
    STYLE_PRESETS,
    _SESSION_TAG,
    DomainSpec,
    PairPolicy,
    PlaceSample,
    PointScan,
    StyleParams,
    _anchor_poses,
    _build_world,
    generate_domain,
)
from rankfuse.errors import ConfigurationError, IngestionError
from rankfuse.evaluation import euclidean, recall_at_n

from conftest import TINY_STYLE, tiny_domain


def _spec(**kw):
    base = dict(seed=3, n_places=30, trajectory_length=250.0, style=TINY_STYLE)
    base.update(kw)
    return DomainSpec(**base)


# The depot rig with sparse landmarks and a 2 m reach: most poses see none.
BLIND_STYLE = dataclasses.replace(STYLE_PRESETS["depot"], landmark_density=0.02, visibility_radius=2.0)
ORACLE_STYLES = {**STYLE_PRESETS, "blind": BLIND_STYLE}


def _oracle_domain(spec, points_per_scan):
    """The scan-by-scan generator, kept as a byte oracle for generate_domain.

    Returns the scans, the poses and each scan's visible point count.
    """
    world = _build_world(spec.seed, spec.trajectory_length, spec.style)
    landmarks = np.split(world.landmark_points, np.cumsum(world.landmark_sizes)[:-1])
    style = spec.style
    anchors, _ = _anchor_poses(world.curve, world.arc, spec.n_places)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([spec.seed, _SESSION_TAG, spec.session])))
    poses = anchors.copy()
    if spec.session > 0:
        poses = poses + rng.normal(0.0, 1.5, poses.shape)

    scans, counts = [], []
    for i in range(spec.n_places):
        pose = poses[i]
        dists = np.linalg.norm(world.landmark_centers - pose[None, :], axis=1)
        vis = np.flatnonzero(dists <= style.visibility_radius)
        if len(vis) > 0:
            rel = np.concatenate([landmarks[j] for j in vis], axis=0)
            rel[:, 0] -= pose[0]
            rel[:, 1] -= pose[1]
        else:
            rel = rng.uniform(-2.0, 2.0, (points_per_scan, 3))
        counts.append(rel.shape[0] if len(vis) else 0)

        yaw = style.sensor_yaw + rng.uniform(-style.yaw_jitter, style.yaw_jitter)
        c, s = math.cos(yaw), math.sin(yaw)
        rel[:, :2] = rel[:, :2] @ np.array([[c, -s], [s, c]]).T
        if style.sensor_tilt != 0.0:
            ct, st_ = math.cos(style.sensor_tilt), math.sin(style.sensor_tilt)
            rel[:, 1:] = rel[:, 1:] @ np.array([[ct, -st_], [st_, ct]]).T
        rel *= style.axis_scale
        rel[:, 2] += style.sensor_z
        rel = rel + rng.normal(0.0, style.noise, rel.shape)

        n_pts = rel.shape[0]
        rel = rel[rng.choice(n_pts, size=points_per_scan, replace=n_pts < points_per_scan)]
        rel[:, 0] /= FRAME_XY
        rel[:, 1] /= FRAME_XY
        rel[:, 2] /= FRAME_Z
        np.clip(rel, -1.0, 1.0, out=rel)
        scans.append(rel)
    return scans, poses, counts


def _assert_matches_oracle(spec, points_per_scan):
    samples = generate_domain(spec, points_per_scan=points_per_scan)
    scans, poses, counts = _oracle_domain(spec, points_per_scan)
    assert len(samples) == len(scans)
    for s, scan, pose in zip(samples, scans, poses):
        assert s.scan.points.tobytes() == scan.tobytes()
        assert s.pose.tobytes() == pose.tobytes()
    return counts


# ---------------------------------------------------------------------------
# Generation


def test_generate_domain_shapes_and_ids():
    samples = generate_domain(_spec(), points_per_scan=40)
    assert len(samples) == 30
    for i, s in enumerate(samples):
        assert s.scan.points.shape == (40, 3)
        assert s.pose.shape == (2,)
        assert s.sample_id == i
        assert s.domain_id == 0


def test_scans_live_in_unit_cube():
    for name in STYLE_PRESETS:
        samples = generate_domain(_spec(style=STYLE_PRESETS[name]), points_per_scan=64)
        peak = max(np.max(np.abs(s.scan.points)) for s in samples)
        assert peak <= 1.0


def test_generation_is_deterministic():
    a = generate_domain(_spec(), points_per_scan=32)
    b = generate_domain(_spec(), points_per_scan=32)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.scan.points, sb.scan.points)
        np.testing.assert_array_equal(sa.pose, sb.pose)


def test_sessions_revisit_the_same_world():
    # Same trajectory anchors, perturbed poses, fresh scans.
    s0 = generate_domain(_spec(session=0), points_per_scan=32)
    s1 = generate_domain(_spec(session=1), points_per_scan=32)
    s2 = generate_domain(_spec(session=2), points_per_scan=32)
    p0 = np.stack([s.pose for s in s0])
    p1 = np.stack([s.pose for s in s1])
    p2 = np.stack([s.pose for s in s2])
    assert not np.array_equal(p0, p1)
    assert not np.array_equal(p1, p2)
    # Session offsets are small compared to place spacing.
    assert np.max(np.linalg.norm(p1 - p0, axis=1)) < 10.0
    assert not np.array_equal(s0[0].scan.points, s1[0].scan.points)


def test_different_seeds_give_different_worlds():
    a = generate_domain(_spec(seed=3), points_per_scan=32)
    b = generate_domain(_spec(seed=4), points_per_scan=32)
    assert not np.array_equal(a[0].scan.points, b[0].scan.points)


def test_generate_domain_tags_domain_id():
    samples = generate_domain(_spec(), points_per_scan=16)
    tagged = generate_domain(_spec(), points_per_scan=16, domain_id=5)
    assert all(s.domain_id == 5 for s in tagged)
    assert all(s.domain_id == 0 for s in samples)
    for a, b in zip(samples, tagged):
        assert a.scan.points.tobytes() == b.scan.points.tobytes()


@pytest.mark.parametrize("session", [0, 1, 2])
@pytest.mark.parametrize("style", sorted(ORACLE_STYLES))
def test_generate_domain_matches_scan_by_scan_oracle(style, session):
    # 1 and 16 points sit below every visible count, 4000 above it (picks
    # with replacement); the blind style takes the uniform-clutter branch.
    spec = _spec(style=ORACLE_STYLES[style], session=session, n_places=12, trajectory_length=200.0)
    one, few, many = (_assert_matches_oracle(spec, p) for p in (1, 16, 4000))
    assert one == few == many
    if style == "blind":
        assert 0 in few
    else:
        assert 16 < min(few) and max(few) < 4000


@settings(max_examples=40, deadline=None)
@given(
    style=st.sampled_from(sorted(ORACLE_STYLES)),
    session=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    n_places=st.integers(2, 9),
    points=st.integers(1, 3000),
    length=st.floats(60.0, 400.0),
)
@example(style="blind", session=0, seed=3, n_places=9, points=2999, length=300.0)
@example(style="blind", session=1, seed=3, n_places=9, points=1, length=300.0)
@example(style="plains", session=2, seed=0, n_places=2, points=1, length=60.0)
def test_generate_domain_matches_oracle_on_any_split(style, session, seed, n_places, points, length):
    spec = DomainSpec(seed=seed, n_places=n_places, trajectory_length=length,
                      style=ORACLE_STYLES[style], session=session)
    _assert_matches_oracle(spec, points)


def test_cached_world_is_read_only_and_scans_are_fresh():
    spec = _spec(n_places=6)
    first = generate_domain(spec, points_per_scan=16)
    world = _build_world(spec.seed, spec.trajectory_length, spec.style)
    for name in ("curve", "arc", "landmark_centers", "landmark_points", "landmark_sizes"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(world, name)[0] = 0
    expected = [(s.scan.points.tobytes(), s.pose.tobytes()) for s in first]
    for s in first:
        s.scan.points[:] = 0.5
        s.pose[:] = -1.0
    second = generate_domain(spec, points_per_scan=16)
    assert [(s.scan.points.tobytes(), s.pose.tobytes()) for s in second] == expected


def test_points_per_scan_validated():
    with pytest.raises(ConfigurationError):
        generate_domain(_spec(), points_per_scan=0)


# ---------------------------------------------------------------------------
# Style and spec validation


def test_style_presets_cover_reference_domains():
    assert set(STYLE_PRESETS) == {"plains", "depot", "grove", "arcade"}


def test_style_params_validation():
    with pytest.raises(ConfigurationError):
        StyleParams(plane_weight=0.0, box_weight=0.0, clutter_weight=0.0)
    with pytest.raises(ConfigurationError):
        StyleParams(landmark_density=0.0)
    with pytest.raises(ConfigurationError):
        StyleParams(noise=-0.1)
    with pytest.raises(ConfigurationError):
        StyleParams(height_scale=0.0)
    with pytest.raises(ConfigurationError):
        StyleParams(axis_scale=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        StyleParams(axis_scale=(1.0, -1.0, 1.0))
    # Built directly, a style checks types as a config does.
    with pytest.raises(ConfigurationError, match="^StyleParams.noise: must be a number, got True$"):
        StyleParams(noise=True)


def test_domain_spec_validation():
    with pytest.raises(ConfigurationError):
        DomainSpec(seed=1, n_places=1)
    with pytest.raises(ConfigurationError):
        DomainSpec(seed=1, n_places=10, trajectory_length=0.0)
    with pytest.raises(ConfigurationError):
        DomainSpec(seed=1, n_places=10, session=-1)
    # A spec built directly, not through a config, stops here and not later
    # in generate_domain.
    for length, message in [(math.nan, "finite, got nan"), (math.inf, "finite, got inf"),
                            (-math.inf, "finite, got -inf"), (-5.0, "> 0, got -5.0")]:
        with pytest.raises(ConfigurationError,
                           match=f"^DomainSpec.trajectory_length: must be {message}$"):
            DomainSpec(seed=1, n_places=4, trajectory_length=length)
    # A negative seed used to end in numpy's ValueError; a bool or a string
    # was accepted.
    for seed in (-1, True, "1"):
        with pytest.raises(ConfigurationError,
                           match=f"^DomainSpec.seed: must be a non-negative integer, got {seed!r}$"):
            DomainSpec(seed=seed, n_places=4)


# ---------------------------------------------------------------------------
# Pair labeling


def test_pose_distances_match_cdist():
    # batch_relation labels pairs with evaluation's distance: cdist's bits.
    samples = tiny_domain(n_places=20)
    poses = np.stack([s.pose for s in samples])
    assert np.array_equal(euclidean(poses, poses), cdist(poses, poses))


def test_label_pairs_train_band_is_unlabeled(policy):
    samples = tiny_domain(n_places=50)
    poses = np.stack([s.pose for s in samples])
    rel = batch_relation(poses, np.zeros(50, dtype=int), policy)
    dist = cdist(poses, poses)
    band = (dist >= policy.pos_train) & (dist <= policy.neg_train)
    np.fill_diagonal(band, False)
    assert not (rel.positive & band).any()
    assert not (rel.negative & band).any()
    assert not (rel.positive & rel.negative).any()
    assert not rel.positive.diagonal().any()
    assert not rel.negative.diagonal().any()


def test_label_pairs_test_mode_uses_single_radius(policy):
    # At test time one radius labels pairs: a database row closer than
    # pos_test to the query is a true positive, one at pos_test is not.
    db_emb = np.array([[0.0, 0.0], [1.0, 0.0]])  # row 0 is the query's nearest

    def at_one(offset):
        db_poses = np.array([[offset, 0.0], [0.0, 0.0]])
        return recall_at_n(db_emb, db_poses, np.arange(2), np.zeros((1, 2)),
                           np.zeros((1, 2)), policy.pos_test, 1).percent

    assert at_one(policy.pos_test - 0.01) == 100.0
    assert at_one(policy.pos_test) == 0.0


def test_training_pairs_exist_at_reference_density(policy):
    # The protocol needs every anchor to have positives and negatives in-domain.
    spec = DomainSpec(seed=11, n_places=200, trajectory_length=900.0, style=TINY_STYLE)
    samples = generate_domain(spec, points_per_scan=16)
    rel = batch_relation(np.stack([s.pose for s in samples]), np.zeros(200, dtype=int), policy)
    assert rel.positive.any(axis=1).all()
    assert rel.negative.any(axis=1).all()


# ---------------------------------------------------------------------------
# Corpus round trip


def test_save_load_roundtrip(tmp_path):
    samples = tiny_domain(n_places=12, points=24)
    out = save_corpus(samples, tmp_path / "corpus")
    loaded = load_corpus(out)
    assert len(loaded) == 12
    for orig, scan, pose, sample_id in zip(samples, loaded.scans[:], loaded.poses,
                                           loaded.sample_ids):
        # Scans are stored as little-endian float32.
        np.testing.assert_array_equal(scan, orig.scan.points.astype("<f4").astype(np.float64))
        np.testing.assert_allclose(pose, orig.pose, rtol=0, atol=0)
        assert sample_id == orig.sample_id


def test_load_corpus_renormalizes_out_of_range(tmp_path):
    pts = np.array([[2.0, 0.0, 0.0], [0.0, -4.0, 0.0]])
    sample = PlaceSample(scan=PointScan(pts), pose=np.array([0.0, 0.0]), domain_id=0, sample_id=0)
    other = dataclasses.replace(sample, sample_id=1)
    out = save_corpus([sample, other], tmp_path / "c")
    loaded = load_corpus(out).scans[:]
    assert np.max(np.abs(loaded[0])) <= 1.0


def test_load_corpus_errors(tmp_path):
    with pytest.raises(IngestionError, match="poses.csv"):
        load_corpus(tmp_path).scans[:]

    samples = tiny_domain(n_places=4, points=8)
    out = save_corpus(samples, tmp_path / "broken")
    scan0 = out / "scan_000000.f32"
    raw = scan0.read_bytes()
    scan0.write_bytes(raw[:-4])  # drop one float: no longer a multiple of 3
    with pytest.raises(IngestionError, match="multiple of 3"):
        load_corpus(out).scans[:]

    scan0.write_bytes(raw[: 3 * 4])  # one point: count mismatch vs later scans
    with pytest.raises(IngestionError, match="expected"):
        load_corpus(out).scans[:]


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    samples = tiny_domain(n_places=3, points=8)
    out = save_corpus(samples, tmp_path / "dup")
    poses = (out / "poses.csv").read_text().splitlines()
    poses.append(poses[1])
    (out / "poses.csv").write_text("\n".join(poses) + "\n")
    with pytest.raises(IngestionError, match="duplicate"):
        load_corpus(out).scans[:]


def test_load_corpus_rejects_nan_scan(tmp_path):
    out = save_corpus(tiny_domain(n_places=3, points=8), tmp_path / "nan")
    scan1 = out / "scan_000001.f32"
    pts = np.frombuffer(scan1.read_bytes(), dtype="<f4").copy()
    pts[4] = np.nan
    scan1.write_bytes(pts.tobytes())
    with pytest.raises(IngestionError, match=r"poses\.csv line 3: scan file scan_000001\.f32 has non-finite"):
        load_corpus(out).scans[:]


def test_load_corpus_reports_the_first_bad_line(tmp_path):
    # A NaN scan at line 3 is reported before a missing file at line 5, though
    # the scans are checked for finite values only once all are read.
    out = save_corpus(tiny_domain(n_places=5, points=8), tmp_path / "two")
    scan1 = out / "scan_000001.f32"
    pts = np.frombuffer(scan1.read_bytes(), dtype="<f4").copy()
    pts[0] = np.nan
    scan1.write_bytes(pts.tobytes())
    (out / "scan_000003.f32").unlink()
    with pytest.raises(IngestionError, match=r"line 3: scan file scan_000001\.f32 has non-finite"):
        load_corpus(out).scans[:]
    scan1.write_bytes(np.zeros(24, dtype="<f4").tobytes())
    with pytest.raises(IngestionError, match=r"line 5: missing scan file scan_000003\.f32"):
        load_corpus(out).scans[:]


def test_load_corpus_scan_entry_naming_a_directory_is_missing(tmp_path):
    out = save_corpus(tiny_domain(n_places=3, points=8), tmp_path / "dir")
    (out / "scan_000002.f32").unlink()
    (out / "scan_000002.f32").mkdir()
    with pytest.raises(IngestionError, match=r"line 4: missing scan file scan_000002\.f32"):
        load_corpus(out).scans[:]
    # Nor is a FIFO a scan file: it is refused, not waited on.
    (out / "scan_000002.f32").rmdir()
    os.mkfifo(out / "scan_000002.f32")
    with pytest.raises(IngestionError, match=r"line 4: missing scan file scan_000002\.f32"):
        load_corpus(out).scans[:]


def test_load_corpus_scan_entry_naming_no_possible_file_is_missing(tmp_path):
    out = save_corpus(tiny_domain(n_places=3, points=8), tmp_path / "long")
    text = (out / "poses.csv").read_text()
    (out / "poses.csv").write_text(text.replace("scan_000001.f32", "x" * 300))
    with pytest.raises(IngestionError, match=r"line 3: missing scan file x{300}$"):
        load_corpus(out).scans[:]


def test_load_corpus_size_messages(tmp_path):
    out = save_corpus(tiny_domain(n_places=3, points=8), tmp_path / "size")
    scan2 = out / "scan_000002.f32"
    raw = scan2.read_bytes()
    scan2.write_bytes(raw[:-4])
    with pytest.raises(IngestionError, match=r"line 4: scan file scan_000002\.f32 has 23 floats, "
                                             r"not a multiple of 3$"):
        load_corpus(out).scans[:]
    scan2.write_bytes(raw[:-12])
    with pytest.raises(IngestionError, match=r"line 4: scan file scan_000002\.f32 has 7 points, "
                                             r"expected 8$"):
        load_corpus(out).scans[:]


def test_load_corpus_reads_each_scan_only_in_the_slice_that_asks_for_it(tmp_path):
    # A bad scan file fails the slice that reads it, not the load, and any
    # slice is read as the whole corpus would be; the first scan still fixes
    # the point count, whichever slice comes first.
    samples = tiny_domain(n_places=6, points=8)
    out = save_corpus(samples, tmp_path / "lazy")
    (out / "scan_000004.f32").unlink()
    corpus = load_corpus(out)
    whole = np.stack([s.scan.points for s in samples]).astype("<f4").astype(np.float64)
    assert corpus.scans[2:4].tobytes() == whole[2:4].tobytes()
    assert corpus.scans[5:].tobytes() == whole[5:].tobytes()
    assert corpus.scans[3:3].shape == (0, 8, 3)
    with pytest.raises(IngestionError, match=r"line 6: missing scan file scan_000004\.f32"):
        corpus.scans[3:6]
    scan0 = out / "scan_000000.f32"
    scan0.write_bytes(scan0.read_bytes()[: 4 * 12])
    with pytest.raises(IngestionError, match=r"line 4: scan file scan_000002\.f32 has 8 points, "
                                             r"expected 4$"):
        load_corpus(out).scans[2:3]


def test_load_corpus_renormalizes_only_out_of_range_scans(tmp_path):
    samples = tiny_domain(n_places=4, points=8)
    out = save_corpus(samples, tmp_path / "one")
    scan2 = out / "scan_000002.f32"
    pts = np.frombuffer(scan2.read_bytes(), dtype="<f4").copy()
    pts[5] = 4.0
    scan2.write_bytes(pts.tobytes())
    loaded = load_corpus(out).scans[:]
    for i, (orig, back) in enumerate(zip(samples, loaded)):
        expect = orig.scan.points.astype("<f4").astype(np.float64)
        if i == 2:
            expect = pts.astype(np.float64).reshape(-1, 3) / 4.0
        assert back.tobytes() == expect.tobytes(), i


def test_load_corpus_rejects_nan_pose(tmp_path):
    out = save_corpus(tiny_domain(n_places=3, points=8), tmp_path / "nanpose")
    lines = (out / "poses.csv").read_text().splitlines()
    fields = lines[2].split(",")
    fields[1] = "nan"
    lines[2] = ",".join(fields)
    (out / "poses.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError, match=r"poses\.csv line 3: non-finite pose"):
        load_corpus(out).scans[:]


def test_load_corpus_rejects_header_only_corpus(tmp_path):
    out = save_corpus([], tmp_path / "empty")
    with pytest.raises(IngestionError, match=r"poses\.csv: no samples"):
        load_corpus(out).scans[:]


@pytest.mark.parametrize("n_places, line", [(4, 3), (200, 150)])
def test_load_corpus_rejects_undecodable_poses(tmp_path, n_places, line):
    # Deep in a file the byte sits past the reader's first decoded chunk.
    out = save_corpus(tiny_domain(n_places=n_places, points=8), tmp_path / "bytes")
    lines = (out / "poses.csv").read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1].replace(b",", b"\xff,", 1)
    (out / "poses.csv").write_bytes(b"\n".join(lines))
    with pytest.raises(IngestionError, match=rf"poses\.csv line {line}: not UTF-8 text"):
        load_corpus(out).scans[:]


def test_load_corpus_reports_a_bad_line_before_an_undecodable_one(tmp_path):
    out = save_corpus(tiny_domain(n_places=5, points=8), tmp_path / "order")
    (out / "scan_000001.f32").unlink()
    (out / "poses.csv").write_bytes((out / "poses.csv").read_bytes() + b"\xff\n")
    with pytest.raises(IngestionError, match=r"line 3: missing scan file scan_000001\.f32"):
        load_corpus(out).scans[:]


def test_load_corpus_rejects_an_oversize_field(tmp_path):
    out = save_corpus(tiny_domain(n_places=3, points=8), tmp_path / "wide")
    with open(out / "poses.csv", "a", encoding="utf-8") as fh:
        fh.write("3,1.0,2.0," + "x" * 140_000 + "\n")
    with pytest.raises(IngestionError, match=r"poses\.csv line 5: field larger than field limit"):
        load_corpus(out).scans[:]


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = save_corpus(tiny_domain(n_places=4, points=8), tmp_path_factory.mktemp("flip"))
    return out, (out / "poses.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_load_corpus_raises_only_ingestion_errors_on_flipped_poses_bytes(small_corpus, flips):
    out, raw = small_corpus
    damaged = bytearray(raw)
    for at, mask in flips:
        damaged[at % len(raw)] ^= mask
    (out / "poses.csv").write_bytes(bytes(damaged))
    try:
        load_corpus(out).scans[:]
    except IngestionError:
        pass


def test_pair_policy_validation():
    with pytest.raises(ConfigurationError):
        PairPolicy(pos_train=0.0)
    with pytest.raises(ConfigurationError):
        PairPolicy(pos_train=10.0, neg_train=5.0)
    with pytest.raises(ConfigurationError):
        PairPolicy(pos_test=-1.0)
    # A bare TypeError before.
    with pytest.raises(ConfigurationError, match="^PairPolicy.pos_test: must be a number, got '25'$"):
        PairPolicy(pos_test="25")
