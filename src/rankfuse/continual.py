"""Sequential training over a domain stream.

Each step initializes the new model from the old snapshot, freezes the old
one, and trains on mixed batches of new-domain samples and replay-buffer
exemplars with the combined loss. The first step is plain metric learning:
no buffer, no distillation, and the relaxation schedule is never consulted.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .config import BufferConfig, DomainSpec, ExperimentConfig, PairPolicy, PlanConfig, check
from .data import PairRelation, generate_domain
from .encoder import (
    AdamState,
    EncoderParams,
    ModelSnapshot,
    adam_step,
    backward,
    encode,
    encode_with_cache,
    init_params,
    make_snapshot,
    params_digest,
    save_snapshot,
)
from .errors import ConfigurationError, TrainingError, UsageError, write_atomic
from .evaluation import euclidean
from .losses import combined_loss, relaxation_weight

log = logging.getLogger(__name__)

_STEP_TAG = 0xC0
_BUFFER_TAG = 0xBF
_INIT_TAG = 0x1A

RUN_LOG_NAME = "run_log.jsonl"


def lr_at(plan: PlanConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch; drops once at lr_drop_epoch."""
    if epoch < plan.lr_drop_epoch:
        return plan.lr
    return plan.lr * plan.lr_drop_factor


def maybe_expand_batch(size: int, active_fraction: float, plan: PlanConfig) -> int:
    """Grow the batch when too few triplets are still active."""
    if active_fraction < plan.active_threshold:
        return min(math.ceil(size * plan.expansion_rate), plan.batch_cap)
    return size


def batch_relation(poses, domain_ids, policy: PairPolicy | None = None) -> PairRelation:
    """Train-mode pair labels for a possibly mixed-domain batch.

    ``poses`` (B, 2) and ``domain_ids`` (B,) are the batch's rows.
    Same-domain pairs follow the pose thresholds; cross-domain pairs are
    negatives (different environments are never the same place). The older
    form ``batch_relation(samples, policy)``, on ``PlaceSample``s, is what
    ``benchmarks/child.py`` calls.
    """
    if policy is None:
        samples, policy = poses, domain_ids
        poses = np.stack([s.pose for s in samples])
        domain_ids = np.array([s.domain_id for s in samples])
    dist = euclidean(poses, poses)
    same = domain_ids[:, None] == domain_ids[None, :]
    positive = same & (dist < policy.pos_train)
    negative = (~same) | (same & (dist > policy.neg_train))
    np.fill_diagonal(positive, False)
    np.fill_diagonal(negative, False)
    return PairRelation(positive=positive, negative=negative)


@dataclass
class EpochRecord:
    step: int
    epoch: int
    lr: float
    lam: float
    batch_size: int
    loss_pr: float
    loss_rkd: float
    loss_dkd: float
    active_fraction: float

    def as_json(self) -> str:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return json.dumps(d, sort_keys=True)


@dataclass
class StepResult:
    snapshot: ModelSnapshot
    records: list
    lambda_calls: int  # instrumentation: schedule consultations during the step


def _epoch_batches(rng, n_new: int, n_buffer: int, batch_size: int, fraction: float):
    """Yield index arrays into new + buffer samples, one shuffled pass of the new data.

    Indices below ``n_new`` are new-domain samples, the rest buffer entries.
    A tail chunk of fewer than 4 new samples is dropped: those samples sit
    out this epoch rather than form a batch too small to mine.
    """
    order = rng.permutation(n_new)
    buf_quota = int(round(batch_size * fraction)) if n_buffer else 0
    new_quota = max(batch_size - buf_quota, 2)
    for start in range(0, n_new, new_quota):
        chunk = order[start : start + new_quota]
        if len(chunk) < 4 and start > 0:
            break
        if buf_quota:
            picks = rng.choice(n_buffer, size=buf_quota, replace=n_buffer < buf_quota)
            chunk = np.concatenate([chunk, n_new + picks])
        yield chunk


def _train(
    start_params: EncoderParams,
    old: ModelSnapshot | None,
    new_samples: list,
    buffer_entries: list,
    cfg: ExperimentConfig,
    step_index: int,
    seed: int,
    config_digest: str,
) -> StepResult:
    plan, loss = cfg.plan, cfg.loss
    normalize = cfg.encoder.normalize
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, _STEP_TAG, step_index]))
    )
    params = start_params.astype(np.float64)
    state = AdamState.zeros_like(params)
    distill = old is not None and (loss.rkd or loss.dkd)
    old_params = old.params if old is not None else None
    old_digest = params_digest(old_params) if old_params is not None else None

    # With at least one new-domain sample, every epoch forms a batch.
    if not new_samples:
        raise TrainingError(f"step {step_index}: no new-domain samples, no batches formed")
    # The frozen teacher's embeddings are constants of the step: encode each
    # new-domain sample and buffer entry once, then gather rows per batch.
    # Scans are stacked a chunk or a batch at a time, never the whole pool.
    pool = new_samples + buffer_entries
    pool_poses = np.stack([s.pose for s in pool])
    pool_domains = np.array([s.domain_id for s in pool])
    teacher = encode(old_params, [s.scan.points for s in pool], normalize) if distill else None

    records = []
    lambda_calls = 0
    batch_size = plan.batch_start
    for epoch in range(plan.epochs):
        lr = lr_at(plan, epoch)
        if distill:
            lam = relaxation_weight(epoch, plan.epochs, loss.lambda_variant)
            lambda_calls += 1
        else:
            lam = 0.0
        sums = {"pr": 0.0, "rkd": 0.0, "dkd": 0.0, "frac": 0.0}
        n_batches = 0
        for rows in _epoch_batches(
            rng, len(new_samples), len(buffer_entries), batch_size, cfg.buffer.fraction
        ):
            scans = np.stack([pool[i].scan.points for i in rows])
            e_new, cache = encode_with_cache(params, scans, normalize)
            e_old = teacher[rows] if distill else None
            relation = batch_relation(pool_poses[rows], pool_domains[rows], cfg.pairs)
            out = combined_loss(e_old, e_new, relation, loss, lam)
            if not np.isfinite(out.loss.value):
                raise TrainingError(
                    f"non-finite loss at step {step_index} epoch {epoch} "
                    f"batch {n_batches}"
                )
            grads = backward(params, scans, out.loss.grad_new, normalize, cache=cache)
            params, state = adam_step(params, grads, state, lr=lr, weight_decay=plan.weight_decay)
            sums["pr"] += out.pr_value
            sums["rkd"] += out.rkd_value
            sums["dkd"] += out.dkd_value
            sums["frac"] += out.active_fraction
            n_batches += 1
        mean_fraction = sums["frac"] / n_batches
        records.append(
            EpochRecord(
                step=step_index,
                epoch=epoch,
                lr=lr,
                lam=lam,
                batch_size=batch_size,
                loss_pr=sums["pr"] / n_batches,
                loss_rkd=sums["rkd"] / n_batches,
                loss_dkd=sums["dkd"] / n_batches,
                active_fraction=mean_fraction,
            )
        )
        if loss.pr:
            batch_size = maybe_expand_batch(batch_size, mean_fraction, plan)

    if old_params is not None and params_digest(old_params) != old_digest:
        raise TrainingError("frozen old-model parameters changed during training")
    snapshot = make_snapshot(params, step_index, config_digest, normalize)
    return StepResult(snapshot=snapshot, records=records, lambda_calls=lambda_calls)


def train_first_step(
    samples: list, cfg: ExperimentConfig, seed: int, config_digest: str = ""
) -> StepResult:
    """Initial-environment training (step 0): metric learning only."""
    init_seed = int(
        np.random.SeedSequence([seed, _INIT_TAG]).generate_state(1, np.uint64)[0]
    )
    params = init_params(init_seed, cfg.encoder.hidden, cfg.encoder.dim)
    metric_only = replace(cfg, loss=replace(cfg.loss, pr=True, rkd=False, dkd=False))
    return _train(params, None, samples, [], metric_only, 0, seed, config_digest)


def train_continual_step(
    old: ModelSnapshot,
    samples: list,
    buffer: list,
    cfg: ExperimentConfig,
    step_index: int,
    seed: int,
    config_digest: str = "",
) -> StepResult:
    """One incremental step: new model warm-started from old, old frozen.

    ``buffer`` is the replay list of ``update_buffer``; an empty one means
    no replay.
    """
    if step_index < 1:
        raise UsageError(f"continual step requires step_index >= 1, got {step_index}")
    current = {s.domain_id for s in buffer if s.domain_id >= step_index}
    if current:
        raise ConfigurationError(
            f"buffer holds samples from current/future domains {sorted(current)}"
        )
    return _train(old.params, old, samples, buffer, cfg, step_index, seed, config_digest)


def update_buffer(
    buffer: list, completed_samples: list, capacity: int, seed: int, step_index: int
) -> list:
    """Re-split ``capacity`` equally over all seen domains and refill.

    Floor division with the remainder going to the earliest domains; kept
    entries are a uniform subsample, the completed domain contributes a
    uniform draw. Deterministic in (seed, step_index).
    """
    check(BufferConfig, "buffer", {"capacity": capacity}, relations=False)
    if not completed_samples:
        raise UsageError("update_buffer needs the completed domain's samples")
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, _BUFFER_TAG, step_index]))
    )
    new_domain = completed_samples[0].domain_id
    by_domain = {}
    for s in buffer:
        by_domain.setdefault(s.domain_id, []).append(s)
    if new_domain in by_domain:
        raise UsageError(f"domain {new_domain} already present in buffer")
    domains = sorted(by_domain) + [new_domain]

    n = len(domains)
    base, extra = divmod(capacity, n)
    quotas = {d: base + (1 if i < extra else 0) for i, d in enumerate(domains)}

    kept = []
    for d in domains:
        pool = by_domain.get(d) if d != new_domain else list(completed_samples)
        quota = quotas[d]
        if len(pool) <= quota:
            if len(pool) < quota:
                log.warning(
                    "buffer shortfall: domain %d has %d samples for quota %d",
                    d,
                    len(pool),
                    quota,
                )
            kept.extend(pool)
            continue
        picks = rng.choice(len(pool), size=quota, replace=False)
        kept.extend(pool[i] for i in sorted(picks))
    return kept


def write_run_log(records: list, path) -> None:
    """Write ``records`` whole as ``path``, one JSON line each."""
    write_atomic(path, "".join(rec.as_json() + "\n" for rec in records))


# ---------------------------------------------------------------------------
# Whole-protocol driver


def domain_split(cfg: ExperimentConfig, i: int, session: int) -> list:
    """Domain ``i``'s split of ``session``: 0 trains on ``train_places``
    scans, 1 (database) and 2 (queries) hold ``test_places`` each.

    Database and query splits revisit the training world on other sessions,
    so retrieval never sees its own scans. A split depends only on its
    domain's config, never on a protocol seed.
    """
    dom = cfg.domains[i]
    spec = DomainSpec(
        seed=dom.seed,
        n_places=dom.train_places if session == 0 else dom.test_places,
        trajectory_length=dom.trajectory_length,
        style=dom.style_params(),
        session=session,
    )
    return generate_domain(spec, cfg.encoder.points_per_scan, domain_id=i)


def build_protocol_data(cfg: ExperimentConfig, sessions=(0, 1, 2)) -> list:
    """For each of ``sessions``, the split of every configured domain: by
    default the train, database and query splits."""
    return [[domain_split(cfg, i, s) for i in range(len(cfg.domains))] for s in sessions]


def run_protocol(
    cfg: ExperimentConfig, seed: int, train: list, out_dir=None, digest: str = ""
) -> tuple[list, list]:
    """Train sequentially over the configured domains and save artifacts.

    ``train`` holds each domain's train split, ``build_protocol_data(cfg,
    (0,))[0]``. It does not depend on the seed, so callers build it once per
    config. Returns the snapshot of each step and the seconds each step took.
    The run log is rewritten whole after each step, so a killed run leaves the
    steps done so far, never a cut line.
    """
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    buffer = []
    records = []
    snapshots = []
    step_seconds = []
    for t, samples in enumerate(train):
        t0 = time.perf_counter()
        if t == 0:
            result = train_first_step(samples, cfg, seed, config_digest=digest)
        else:
            result = train_continual_step(
                snapshots[-1], samples, buffer, cfg, t, seed, config_digest=digest
            )
        snapshots.append(result.snapshot)
        step_seconds.append(time.perf_counter() - t0)
        if cfg.buffer.enabled:
            buffer = update_buffer(buffer, samples, cfg.buffer.capacity, seed, step_index=t)
        if out is not None:
            save_snapshot(result.snapshot, out / f"step_{t}.snap")
            records += result.records
            write_run_log(records, out / RUN_LOG_NAME)
    return snapshots, step_seconds
