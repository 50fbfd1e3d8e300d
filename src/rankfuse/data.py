"""Synthetic multi-domain scan corpora.

A domain is a smooth planar trajectory through a fixed set of 3D landmarks
(plane patches, boxes, scatter clutter). A scan is the set of landmark points
visible from a pose, expressed in a pose-centered frame, jittered,
normalized to [-1, 1] and rounded to float32, the numbers of its corpus file,
so training and ``eval`` read the same inputs. Landmarks and trajectory
depend only on the domain seed, so different sessions (traversals) of the
same domain observe the same world and nearby poses genuinely overlap. The
on-disk format that ``gen-data`` writes these samples in, and ``eval``
reads, is ``corpus``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DomainSpec, EncoderConfig, StyleParams, check
from .config import STYLE_PRESETS, PairPolicy  # noqa: F401  only benchmarks/child.py reads these
from .errors import UsageError

DEFAULT_POINTS_PER_SCAN = 256

# One fixed sensor frame for every domain: scans are normalized by these
# extents, never per style, so cross-domain scale differences survive.
FRAME_XY = 60.0  # meters mapped to |x| = |y| = 1
FRAME_Z = 24.0  # meters mapped to z = 1

# Distinct sub-stream tags so world/session randomness never aliases.
_WORLD_TAG = 0xD0
_SESSION_TAG = 0x5E55


@dataclass(frozen=True)
class PointScan:
    """One scan: an (N, 3) little-endian float32 array of coordinates in [-1, 1]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype="<f4")
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise UsageError(f"scan points must be (N, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class PlaceSample:
    """A scan tied to a planar pose (meters) inside one domain."""

    scan: PointScan
    pose: np.ndarray
    domain_id: int
    sample_id: int

    def __post_init__(self):
        object.__setattr__(self, "pose", np.asarray(self.pose, dtype=np.float64).reshape(2))


@dataclass(frozen=True)
class PairRelation:
    """Symmetric, irreflexive positive/negative masks over one sample list."""

    positive: np.ndarray  # (N, N) bool
    negative: np.ndarray  # (N, N) bool


# ---------------------------------------------------------------------------
# World construction


def _trajectory_curve(rng: np.random.Generator, length: float, resolution: int = 2048):
    """Smooth folded planar curve with total arc length ``length``.

    Returns dense curve points (resolution, 2) and cumulative arc lengths.
    """
    u = np.linspace(0.0, 1.0, resolution)
    xy = np.zeros((resolution, 2))
    for axis in range(2):
        for k in range(1, 5):
            amp = rng.uniform(0.4, 1.0) / k
            phase = rng.uniform(0.0, 2.0 * math.pi)
            xy[:, axis] += amp * np.sin(2.0 * math.pi * k * u + phase)
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    xy *= length / arc[-1]
    arc *= length / arc[-1]
    return xy, arc


def _anchor_poses(curve: np.ndarray, arc: np.ndarray, n: int):
    """Place n poses at equal arc spacing; returns poses (n,2) and tangents (n,2)."""
    targets = np.linspace(0.0, arc[-1], n)
    idx = np.searchsorted(arc, targets, side="left").clip(1, len(arc) - 1)
    lo, hi = idx - 1, idx
    span = arc[hi] - arc[lo]
    t = np.where(span > 0, (targets - arc[lo]) / np.where(span > 0, span, 1.0), 0.0)
    poses = curve[lo] + (curve[hi] - curve[lo]) * t[:, None]
    tangents = curve[hi] - curve[lo]
    norms = np.linalg.norm(tangents, axis=1, keepdims=True)
    tangents = np.where(norms > 0, tangents / np.where(norms > 0, norms, 1.0), [[1.0, 0.0]])
    return poses, tangents


def _plane_points(rng: np.random.Generator, center: np.ndarray, facing: float) -> np.ndarray:
    width = rng.uniform(4.0, 10.0)
    height = rng.uniform(3.0, 8.0)
    n = 24
    s = rng.uniform(-0.5, 0.5, n) * width
    z = rng.uniform(0.0, 1.0, n) * height
    along = np.array([-math.sin(facing), math.cos(facing)])
    pts = np.empty((n, 3))
    pts[:, :2] = center[None, :] + s[:, None] * along[None, :]
    pts[:, 2] = z
    return pts


def _box_points(rng: np.random.Generator, center: np.ndarray) -> np.ndarray:
    half = rng.uniform(1.5, 4.0, 2)
    height = rng.uniform(3.0, 10.0)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    n = 36
    face = rng.integers(0, 4, n)
    a = rng.uniform(-1.0, 1.0, n)
    z = rng.uniform(0.0, 1.0, n) * height
    local = np.empty((n, 2))
    for f, (sx, sy) in enumerate([(1, 0), (-1, 0), (0, 1), (0, -1)]):
        m = face == f
        if sx:
            local[m, 0] = sx * half[0]
            local[m, 1] = a[m] * half[1]
        else:
            local[m, 0] = a[m] * half[0]
            local[m, 1] = sy * half[1]
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    pts = np.empty((n, 3))
    pts[:, :2] = center[None, :] + local @ rot.T
    pts[:, 2] = z
    return pts


def _clutter_points(rng: np.random.Generator, center: np.ndarray) -> np.ndarray:
    sig_xy = rng.uniform(1.0, 3.0)
    sig_z = rng.uniform(1.0, 4.0)
    n = 16
    pts = np.empty((n, 3))
    pts[:, :2] = center[None, :] + rng.normal(0.0, sig_xy, (n, 2))
    pts[:, 2] = np.abs(rng.normal(sig_z, 0.5 * sig_z, n))
    return pts


@dataclass(frozen=True)
class _World:
    curve: np.ndarray
    arc: np.ndarray
    landmark_centers: np.ndarray  # (M, 2)
    landmark_points: np.ndarray  # (R, 3) world frame, landmark after landmark
    landmark_sizes: np.ndarray  # (M,) rows of each landmark in landmark_points


# A domain's sessions share one world. A run generates every domain's train
# split, trains, then every domain's eval splits; 16 worlds, more than any
# committed config has domains, let it build each world once.
@functools.lru_cache(maxsize=16)
def _build_world(seed: int, trajectory_length: float, style: StyleParams) -> _World:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _WORLD_TAG])))
    curve, arc = _trajectory_curve(rng, trajectory_length)

    n_landmarks = max(8, int(round(style.landmark_density * trajectory_length)))
    weights = np.array([style.plane_weight, style.box_weight, style.clutter_weight])
    weights = weights / weights.sum()

    # Landmarks hang off the trajectory at lateral offsets on either side,
    # scaled to the sensor reach so short-range styles still see structure.
    u = rng.uniform(0.0, arc[-1], n_landmarks)
    idx = np.searchsorted(arc, u).clip(1, len(arc) - 1)
    base = curve[idx]
    tangent = curve[idx] - curve[idx - 1]
    tnorm = np.linalg.norm(tangent, axis=1, keepdims=True)
    tangent = tangent / np.where(tnorm > 0, tnorm, 1.0)
    normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    side = rng.choice([-1.0, 1.0], n_landmarks)
    offset = rng.uniform(0.15, 0.8, n_landmarks) * style.visibility_radius
    centers = base + normal * (side * offset)[:, None]

    kinds = rng.choice(3, n_landmarks, p=weights)
    points = []
    for i in range(n_landmarks):
        c = centers[i]
        if kinds[i] == 0:
            facing = math.atan2(tangent[i, 1], tangent[i, 0])
            pts = _plane_points(rng, c, facing)
        elif kinds[i] == 1:
            pts = _box_points(rng, c)
        else:
            pts = _clutter_points(rng, c)
        pts[:, 2] *= style.height_scale
        points.append(pts)
    flat = np.concatenate(points)
    sizes = np.array([len(p) for p in points])
    for a in (curve, arc, centers, flat, sizes):
        a.flags.writeable = False  # the cached world is shared by every session
    return _World(curve, arc, centers, flat, sizes)


# ---------------------------------------------------------------------------
# Generation


def generate_domain(
    spec: DomainSpec, points_per_scan: int = DEFAULT_POINTS_PER_SCAN, domain_id: int = 0
) -> list[PlaceSample]:
    """Deterministically generate ``spec.n_places`` samples along one trajectory.

    A scan sees every point of each landmark within the visibility radius (or
    uniform clutter when none is), rotated into a jittered sensor frame and
    mounted, jittered per point, subsampled to ``points_per_scan``, normalized
    and rounded to float32. The split is built at once: visibility for every
    (pose, landmark) pair, then a per-scan loop that makes only the RNG draws,
    in per-scan order, then one transform of the picked points. Every kept
    point gets the operations of a scan-by-scan build, so the bytes are equal.
    """
    check(EncoderConfig, "encoder", {"points_per_scan": points_per_scan}, relations=False)

    world = _build_world(spec.seed, spec.trajectory_length, spec.style)
    style = spec.style
    n, p = spec.n_places, points_per_scan
    poses, _tangents = _anchor_poses(world.curve, world.arc, n)

    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([spec.seed, _SESSION_TAG, spec.session]))
    )
    if spec.session > 0:
        poses = poses + rng.normal(0.0, 1.5, poses.shape)

    # Every (pose, landmark) distance at once; sqrt(dx*dx + dy*dy) has the
    # bits of a per-pose np.linalg.norm over the centers.
    centers, sizes = world.landmark_centers, world.landmark_sizes
    dist = np.subtract(centers[:, 0], poses[:, :1])
    dist *= dist
    dy = np.subtract(centers[:, 1], poses[:, 1:])
    dist += np.multiply(dy, dy, out=dy)
    del dy
    visible = np.sqrt(dist, out=dist) <= style.visibility_radius
    del dist

    # The draws of each scan, in scan order: clutter when nothing is in view,
    # yaw, noise over every visible point, the pick. Only picked rows stay.
    scans = np.empty((n, p, 3))  # the picked noise until the transform adds to it
    src = np.zeros((n, p), dtype=np.intp)  # picked rows of landmark_points
    clutter, yaws = {}, []
    for i, k in enumerate((visible @ sizes).tolist()):
        fill = None
        if k == 0:
            k, fill = p, rng.uniform(-2.0, 2.0, (p, 3))
        yaws.append(style.sensor_yaw + rng.uniform(-style.yaw_jitter, style.yaw_jitter))
        noise = rng.normal(0.0, style.noise, (k, 3))
        pick = rng.choice(k, size=p, replace=k < p)
        scans[i] = noise[pick]
        if fill is None:
            src[i] = np.flatnonzero(np.repeat(visible[i], sizes))[pick]
        else:
            clutter[i] = fill[pick]
    del visible

    rel = world.landmark_points[src]
    del src
    rel[:, :, :2] -= poses[:, None, :]
    for i, fill in clutter.items():
        rel[i] = fill
    # Each 2x2 rotation stays a BLAS product on a strided view, as in a
    # scan-by-scan build: an elementwise x*c - y*s rounds differently where
    # BLAS fuses multiply and add. A one-row product goes to gemv, which also
    # rounds unlike the gemm that a scan's visible points went through, so a
    # lone picked point is rotated as two.
    ct, st = math.cos(style.sensor_tilt), math.sin(style.sensor_tilt)
    tilt = np.array([[ct, -st], [st, ct]])
    for i, yaw in enumerate(yaws):
        c, s = math.cos(yaw), math.sin(yaw)
        rows = rel[i, [0, 0]] if p == 1 and i not in clutter else rel[i]
        rows[:, :2] = rows[:, :2] @ np.array([[c, -s], [s, c]]).T
        if style.sensor_tilt != 0.0:
            rows[:, 1:] = rows[:, 1:] @ tilt.T
        rel[i] = rows[:p]
    rel *= style.axis_scale
    rel[:, :, 2] += style.sensor_z
    scans += rel  # noise + point, the same sum as point + noise
    scans[:, :, :2] /= FRAME_XY
    scans[:, :, 2] /= FRAME_Z
    np.clip(scans, -1.0, 1.0, out=scans)
    scans = scans.astype("<f4")  # rounded once: the numbers a corpus file holds
    return [
        PlaceSample(scan=PointScan(scans[i]), pose=poses[i], domain_id=domain_id, sample_id=i)
        for i in range(n)
    ]
