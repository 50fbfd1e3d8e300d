"""Small differentiable point-set encoder.

Per-point MLP (3 -> h -> h, rectifier) shared across points, max pooling over
the point dimension, then a linear projection to the embedding dimension with
optional L2 row normalization. Forward, analytic backward, Adam with
decoupled weight decay, and a versioned binary snapshot format.

Two forward passes share the same arithmetic. ``encode_with_cache`` is the
training pass: it runs the whole batch at once and caches only what
``backward`` reads, ``(x, h1, idx, pooled, z, norms)``. Two exact identities
make the pre-activations unnecessary: ``a1 > 0`` holds exactly where
``h1 > 0``, and the pooling gradient reaches only the arg-max point, whose
pre-activation is positive exactly where the pooled value is. The (B, P, h)
buffers belong to a ``TrainPass`` that a training step creates once and
passes to every batch. A forward on a pass makes the caches of its earlier
forwards stale, and ``backward`` raises ``UsageError`` on a stale cache
rather than read overwritten buffers. ``backward`` only reads its cache, so
it can run twice on one.

Both passes compute the second layer channel-major, (B, h, P), as
w2.T @ h1.T, so each channel's points are contiguous for the max and its
arg-max. The rectifier is applied to the pooled values only, since it
commutes with max.

Max pooling sends each channel's gradient to one winning point per scan,
PointNet's critical points: about 20 to 28 of 160 at the reference shapes.
So the backward works on the winner rows of the flattened (B·P, h) layer
alone: the gradient of the second layer's output, both weight products and
both bias sums. No (B, P, h) array is filled in the backward.

``encode`` is the inference pass:
it keeps no cache and runs the per-point layers in row chunks of about 512 KB
per activation, so its memory stays bounded however many scans it embeds. It
takes a list of scans too, and stacks one chunk at a time; each layer's
chunks share one buffer.
Chunking does not change a single bit, since the per-point layers handle each
scan on its own and the projection runs once over all rows. A chunk never
holds one row unless the input does, because a 1-row product rounds
differently from a batched one.

Both passes add each bias pre-tiled to the layout of one scan's activation,
(P, h) or (h, P): the same add per element as a broadcast, in about half the
time.

All math runs in float64. Snapshots quantize parameters to float32 at freeze
time, so save -> load -> encode is bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TrainingError, UsageError, check, write_atomic

_SNAP_MAGIC = b"RFSN"
_SNAP_VERSION = 1
_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")  # declaration (serialization) order

_NORM_FLOOR = 1e-12
# float64 elements of one (rows, P, h) activation chunk in encode: 512 KB, 8
# rows at P=160, h=48. On a 2-vCPU Xeon, 3000 such scans encoded in 0.13-0.16 s
# in fresh processes, against 0.16-0.19 s with 4 MB (65-row) chunks.
_ENCODE_BUDGET = 65_536


@dataclass(frozen=True)
class EncoderParams:
    """Weights and biases; shapes fixed by (hidden, out_dim)."""

    w1: np.ndarray  # (3, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, h)
    b2: np.ndarray  # (h,)
    w3: np.ndarray  # (h, D)
    b3: np.ndarray  # (D,)

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w3.shape[1]

    def tensors(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, f) for f in _FIELDS)

    def astype(self, dtype) -> "EncoderParams":
        return EncoderParams(*(t.astype(dtype, copy=False) for t in self.tensors()))


@dataclass(frozen=True)
class ModelSnapshot:
    """Frozen encoder state after a completed training step (float32)."""

    params: EncoderParams
    step_index: int
    config_digest: str
    normalize: bool

    def __post_init__(self):
        if self.step_index < 0:
            raise UsageError(f"step_index must be >= 0, got {self.step_index}")


def init_params(seed: int, hidden: int, dim: int) -> EncoderParams:
    """Variance-scaled uniform weights (Glorot), zero biases; pure in seed."""
    from .config import EncoderConfig  # config imports this module, through evaluation

    check(EncoderConfig, "encoder", {"hidden": hidden, "dim": dim}, relations=False)
    rng = np.random.Generator(np.random.PCG64(seed))

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, (fan_in, fan_out))

    return EncoderParams(
        w1=glorot(3, hidden),
        b1=np.zeros(hidden),
        w2=glorot(hidden, hidden),
        b2=np.zeros(hidden),
        w3=glorot(hidden, dim),
        b3=np.zeros(dim),
    )


def _stack_scans(scans) -> np.ndarray:
    x = np.asarray(scans, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != 3:
        raise UsageError(f"scan batch array must be (B, P, 3), got {x.shape}")
    return x


def _head(p: EncoderParams, pooled: np.ndarray, normalize: bool):
    """Project pooled features; returns (embeddings, z, norms or None)."""
    z = pooled @ p.w3 + p.b3
    if not normalize:
        return z, z, None
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / np.maximum(norms, _NORM_FLOOR), z, norms


def _chunk_bounds(rows: int, points: int, hidden: int) -> list[int]:
    """Row offsets of encode's chunks; no 1-row chunk unless ``rows`` is 1."""
    size = max(2, _ENCODE_BUDGET // max(points * hidden, 1))
    starts = list(range(0, rows, size))
    if rows > 1 and rows - starts[-1] == 1:
        starts.pop()  # fold a 1-row tail into the chunk before it
    return starts + [rows]


def encode(params: EncoderParams, scans, normalize: bool = True) -> np.ndarray:
    """Embed a batch of scans into (B, D) rows; permuting a scan's points is a no-op.

    ``scans`` is a (B, P, 3) array or a sequence of (P, 3) scans, which is
    stacked one chunk at a time. Inference only: no backward cache, bounded
    memory, and the same bits as the rows of ``encode_with_cache``. The second
    layer pools before its bias and rectifier: rounding a sum is monotone in
    each term and the rectifier commutes with max, so
    max_p relu(h_p + b) = relu(max_p h_p + b) exactly.
    """
    pts = _stack_scans(scans[:1]).shape[1]
    p = params.astype(np.float64)
    bounds = _chunk_bounds(len(scans), pts, p.hidden)
    pooled = np.empty((len(scans), p.hidden))
    b1 = np.tile(p.b1, (pts, 1))  # pre-tiled, see the module docstring
    # One buffer per layer serves every chunk: no allocation per chunk.
    rows = max(np.diff(bounds), default=0)
    h1_buf, h2_buf = np.empty((rows, pts, p.hidden)), np.empty((rows, p.hidden, pts))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        x = _stack_scans(scans[lo:hi])
        if x.shape[1] != pts:
            raise UsageError(f"scans {lo}..{hi - 1} have {x.shape[1]} points, the first has {pts}")
        h1, h2 = h1_buf[: hi - lo], h2_buf[: hi - lo]
        np.matmul(x, p.w1, out=h1)
        h1 += b1
        np.maximum(h1, 0.0, out=h1)
        np.matmul(p.w2.T, h1.transpose(0, 2, 1), out=h2)  # channel-major, as in training
        np.max(h2, axis=2, out=pooled[lo:hi])
    pooled += p.b2
    np.maximum(pooled, 0.0, out=pooled)
    return _head(p, pooled, normalize)[0]


class TrainPass:
    """The (B, P, h) buffers of one training step, reused by every batch.

    A batch takes views of the first B·P·h elements of each buffer, and the
    buffers grow when a batch needs more. Each forward bumps ``generation``,
    which makes the caches of earlier forwards stale.
    """

    def __init__(self):
        self.generation = 0
        self._bufs = (np.empty(0), np.empty(0))

    def views(self, b: int, pts: int, h: int):
        """Views of h1, (b, pts, h), and of the channel-major a2, (b, h, pts)."""
        n = b * pts * h
        if n > self._bufs[0].size:
            self._bufs = None  # free the smaller pair before the larger is made
            self._bufs = (np.empty(n), np.empty(n))
        h1, a2 = (buf[:n] for buf in self._bufs)
        return h1.reshape(b, pts, h), a2.reshape(b, h, pts)


@dataclass(frozen=True)
class TrainCache:
    """What ``backward`` reads of one training forward."""

    x: np.ndarray  # (B, P, 3) inputs
    h1: np.ndarray  # (B, P, h) first-layer activations, a view into ``work``
    idx: np.ndarray  # (B, h) pooling indices
    pooled: np.ndarray  # (B, h)
    z: np.ndarray  # (B, D) projections
    norms: np.ndarray | None  # (B, 1), None without normalization
    work: TrainPass
    generation: int


def encode_with_cache(params: EncoderParams, scans, normalize: bool = True,
                      work: TrainPass | None = None):
    """Training forward: embeddings plus the ``TrainCache`` that backward() reads.

    The activations live in ``work``'s buffers; without ``work`` the call
    allocates its own. The rows equal ``encode``'s bit for bit.
    """
    x = _stack_scans(scans)
    p = params.astype(np.float64)
    work = TrainPass() if work is None else work
    work.generation += 1
    b, pts, h = len(x), x.shape[1], p.hidden
    h1, a2 = work.views(b, pts, h)
    np.matmul(x, p.w1, out=h1)
    h1 += np.tile(p.b1, (pts, 1))  # pre-tiled, see the module docstring
    np.maximum(h1, 0.0, out=h1)
    np.matmul(p.w2.T, h1.transpose(0, 2, 1), out=a2)
    a2 += np.tile(p.b2[:, None], (1, pts))
    idx = np.argmax(a2, axis=2)
    # argmax takes the first maximum, and the rectifier commutes with max. A
    # channel whose maximum is <= 0 is 0 at every rectified point, so it
    # pools the lowest point, index 0.
    idx[np.take_along_axis(a2, idx[:, :, None], axis=2)[:, :, 0] <= 0.0] = 0
    pooled = np.maximum(np.take_along_axis(a2, idx[:, :, None], axis=2)[:, :, 0], 0.0)
    e, z, norms = _head(p, pooled, normalize)
    return e, TrainCache(x, h1, idx, pooled, z, norms, work, work.generation)


def backward(params: EncoderParams, scans, upstream: np.ndarray, normalize: bool = True,
             *, cache: TrainCache) -> EncoderParams:
    """Exact loss gradient w.r.t. every parameter given d(loss)/d(embedding).

    ``params``, ``scans`` and ``normalize`` are those of the forward that made
    ``cache``. Max pooling routes gradient to the argmax point (lowest index
    on ties); the rectifier subgradient at 0 is 0. With normalization on, the
    full normalization Jacobian is applied; rows with norm below 1e-12 get
    zero gradient (subgradient convention at the origin). The cache is only
    read, so a second call gives the same bytes.
    """
    if cache.generation != cache.work.generation:
        raise UsageError("stale training cache: a later forward on its pass overwrote it")
    x, h1, norms = cache.x, cache.h1, cache.norms
    if np.shape(scans) != x.shape or normalize != (norms is not None):
        raise UsageError("backward scans or normalize differ from the cached forward")
    p = params.astype(np.float64)
    de = np.asarray(upstream, dtype=np.float64)
    if de.shape != cache.z.shape:
        raise UsageError(f"upstream shape {de.shape} does not match embeddings {cache.z.shape}")

    if normalize:
        safe = np.maximum(norms, _NORM_FLOOR)
        e = cache.z / safe
        dz = (de - np.sum(de * e, axis=1, keepdims=True) * e) / safe
        dz[norms[:, 0] < _NORM_FLOOR] = 0.0
    else:
        dz = de

    dw3 = cache.pooled.T @ dz
    db3 = dz.sum(axis=0)
    dpooled = dz @ p.w3.T

    # Only the pooled point of each channel gets gradient, and its
    # pre-activation is positive exactly where the pooled value is. So da2,
    # the gradient of the second layer's output, is zero but on the winner
    # rows: ``rows`` lists them in ascending order, and ``inv`` gives each
    # (scan, channel)'s place among them.
    b, pts, h = h1.shape
    g = dpooled * (cache.pooled > 0.0)
    rows, inv = np.unique((np.arange(0, b * pts, pts)[:, None] + cache.idx).ravel(),
                          return_inverse=True)
    da2 = np.zeros((len(rows), h))
    da2[inv.reshape(b, h), np.arange(h)] = g
    h1w = h1.reshape(b * pts, h)[rows]
    dw2 = h1w.T @ da2
    db2 = da2.sum(axis=0)
    d = (da2 @ p.w2.T) * (h1w > 0.0)  # h1 > 0 exactly where its pre-activation is
    db1 = d.sum(axis=0)
    dw1 = x.reshape(b * pts, 3)[rows].T @ d
    return EncoderParams(w1=dw1, b1=db1, w2=dw2, b2=db2, w3=dw3, b3=db3)


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay


@dataclass
class AdamState:
    """Adam moments as flat float64 vectors in declaration order, updated in place."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "AdamState":
        n = sum(t.size for t in params.tensors())
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


def adam_step(
    params: EncoderParams,
    grads: EncoderParams,
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[EncoderParams, AdamState]:
    """One Adam update; weight decay is decoupled and applied before the moments.

    Every tensor is updated at once, as one flat vector: the arithmetic is
    elementwise, so each element gets the same operations in the same order
    as a per-tensor update. ``state``'s moments are updated in place, and
    ``state`` is returned; the returned params are new arrays.
    """
    g = flatten_params(grads)
    if not np.all(np.isfinite(g)):
        name = next(f for f, t in zip(_FIELDS, grads.tensors()) if not np.all(np.isfinite(t)))
        raise TrainingError(f"non-finite gradient in {name}")
    t = state.t + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    p = flatten_params(params)
    p -= lr * weight_decay * p
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    state.t = t
    return unflatten_params(p, params.hidden, params.out_dim), state


# ---------------------------------------------------------------------------
# Snapshots


def _shapes(hidden: int, dim: int) -> list[tuple[int, ...]]:
    """Shapes of the ``_FIELDS`` tensors for a (hidden, dim) encoder."""
    return [(3, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, dim), (dim,)]


def flatten_params(params: EncoderParams) -> np.ndarray:
    """Concatenate all tensors into one float64 vector, declaration order."""
    return np.concatenate([np.asarray(t, dtype=np.float64).ravel() for t in params.tensors()])


def unflatten_params(vec: np.ndarray, hidden: int, dim: int) -> EncoderParams:
    """Inverse of flatten_params for the given architecture."""
    shapes = _shapes(hidden, dim)
    total = sum(math.prod(s) for s in shapes)
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (total,):
        raise UsageError(f"expected a flat vector of {total} params, got {vec.shape}")
    out = []
    off = 0
    for s in shapes:
        n = math.prod(s)
        out.append(vec[off : off + n].reshape(s))
        off += n
    return EncoderParams(*out)


def params_digest(params: EncoderParams) -> str:
    """SHA-256 over the exact parameter bytes, declaration order."""
    import hashlib  # here, so that eval (which computes no digest) never maps OpenSSL

    h = hashlib.sha256()
    for t in params.tensors():
        h.update(np.ascontiguousarray(t).tobytes())
    return h.hexdigest()


def make_snapshot(params: EncoderParams, step_index: int, config_digest: str,
                  normalize: bool) -> ModelSnapshot:
    """Freeze params into a snapshot (float32, the on-disk precision)."""
    return ModelSnapshot(
        params=params.astype("<f4"),
        step_index=step_index,
        config_digest=config_digest,
        normalize=normalize,
    )


def save_snapshot(snapshot: ModelSnapshot, path: str | Path) -> Path:
    """Versioned binary: magic, config digest, dims, then f32 tensors in
    order, written whole by ``write_atomic``."""
    p = snapshot.params.astype("<f4")
    digest = snapshot.config_digest.encode("utf-8")
    flag = 1 if snapshot.normalize else 0
    parts = [_SNAP_MAGIC, struct.pack("<IH", _SNAP_VERSION, len(digest)), digest,
             struct.pack("<IIIB", snapshot.step_index, p.hidden, p.out_dim, flag)]
    parts += [np.ascontiguousarray(t, dtype="<f4").tobytes() for t in p.tensors()]
    out = Path(path)
    write_atomic(out, b"".join(parts))
    return out


def load_snapshot(path: str | Path) -> ModelSnapshot:
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise UsageError(f"snapshot file not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read snapshot file {path}: {exc.strerror}") from None
    off = 0

    def take(n):
        nonlocal off
        chunk = raw[off : off + n]
        if len(chunk) != n:
            raise UsageError(f"truncated snapshot file {path}")
        off += n
        return chunk

    if take(4) != _SNAP_MAGIC:
        raise UsageError(f"{path} is not a snapshot file (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != _SNAP_VERSION:
        raise UsageError(f"unsupported snapshot version {version} in {path}")
    (dlen,) = struct.unpack("<H", take(2))
    try:
        digest = take(dlen).decode("utf-8")
    except UnicodeDecodeError:
        raise UsageError(f"config digest in snapshot file {path} is not UTF-8") from None
    step_index, hidden, dim = struct.unpack("<III", take(12))
    if hidden < 1 or dim < 1:
        raise UsageError(f"snapshot file {path} has hidden={hidden}, dim={dim}; both must be >= 1")
    (norm_flag,) = struct.unpack("<B", take(1))
    tensors = []
    for shape in _shapes(hidden, dim):
        n = math.prod(shape)
        tensors.append(np.frombuffer(take(4 * n), dtype="<f4").reshape(shape).copy())
    if off != len(raw):
        raise UsageError(f"trailing bytes in snapshot file {path}")
    return ModelSnapshot(
        params=EncoderParams(*tensors),
        step_index=step_index,
        config_digest=digest,
        normalize=bool(norm_flag),
    )
