"""Replay buffer, plan schedules, freeze guarantees, and the training protocol."""

import functools
import json
import logging
from collections import Counter

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import rankfuse.continual
from rankfuse.config import BufferConfig, load_config
from rankfuse.continual import (
    batch_relation,
    build_protocol_data,
    lr_at,
    maybe_expand_batch,
    run_protocol,
    train_continual_step,
    train_first_step,
    update_buffer,
    write_run_log,
)
from rankfuse.data import _build_world
from rankfuse.encoder import params_digest
from rankfuse.errors import ConfigurationError, TrainingError, UsageError

from conftest import tiny_config, tiny_domain
from test_config import SMOKE

RUN_LOG_KEYS = {
    "step",
    "epoch",
    "lr",
    "lambda",
    "batch_size",
    "loss_pr",
    "loss_rkd",
    "loss_dkd",
    "active_fraction",
}


# ---------------------------------------------------------------------------
# Plans


def test_step_plan_validation():
    with pytest.raises(ConfigurationError):
        tiny_config(epochs=0)
    with pytest.raises(ConfigurationError):
        tiny_config(batch_start=32, batch_cap=16)
    with pytest.raises(ConfigurationError):
        tiny_config(expansion_rate=1.0)
    with pytest.raises(ConfigurationError):
        BufferConfig(fraction=0.0)


def test_lr_drops_once_at_the_scheduled_epoch():
    plan = tiny_config(epochs=6, lr=1e-3, lr_drop_epoch=4, lr_drop_factor=0.1).plan
    rates = [lr_at(plan, e) for e in range(6)]
    assert rates == [1e-3, 1e-3, 1e-3, 1e-3, 1e-4, 1e-4]


def test_batch_expansion_rule():
    plan = tiny_config(batch_start=16, batch_cap=64, expansion_rate=1.4, active_threshold=0.7).plan
    assert maybe_expand_batch(16, 0.9, plan) == 16
    assert maybe_expand_batch(16, 0.5, plan) == 23  # ceil(16 * 1.4)
    assert maybe_expand_batch(60, 0.1, plan) == 64  # capped
    assert maybe_expand_batch(64, 0.0, plan) == 64


# ---------------------------------------------------------------------------
# Mixed-batch pair labels


def test_batch_relation_cross_domain_is_negative(policy):
    a = tiny_domain(n_places=6, domain_id=0)
    b = tiny_domain(n_places=6, seed=9, domain_id=1)
    batch = a + b
    rel = batch_relation(np.stack([s.pose for s in batch]),
                         np.array([s.domain_id for s in batch]), policy)
    cross = np.zeros((12, 12), dtype=bool)
    cross[:6, 6:] = True
    cross[6:, :6] = True
    assert rel.negative[cross].all()
    assert not rel.positive[cross].any()
    assert not rel.positive.diagonal().any()


def test_batch_relation_same_domain_uses_thresholds(policy):
    samples = tiny_domain(n_places=30)
    poses = np.stack([s.pose for s in samples])
    rel = batch_relation(poses, np.zeros(30, dtype=int), policy)
    dist = cdist(poses, poses)
    expected_pos = dist < policy.pos_train
    np.fill_diagonal(expected_pos, False)
    np.testing.assert_array_equal(rel.positive, expected_pos)


def test_batch_relation_takes_samples_in_its_older_form(policy):
    # benchmarks/child.py calls batch_relation(samples, policy).
    batch = tiny_domain(n_places=8, domain_id=0) + tiny_domain(n_places=8, seed=9, domain_id=1)
    rows = batch_relation(np.stack([s.pose for s in batch]),
                          np.array([s.domain_id for s in batch]), policy)
    old = batch_relation(batch, policy)
    assert old.positive.tobytes() == rows.positive.tobytes()
    assert old.negative.tobytes() == rows.negative.tobytes()


# ---------------------------------------------------------------------------
# Replay buffer


def _fake_samples(n, domain_id, seed=0):
    return tiny_domain(n_places=n, seed=seed + domain_id, domain_id=domain_id, points=8)


def test_buffer_validation():
    with pytest.raises(ConfigurationError, match="buffer.capacity"):
        update_buffer([], _fake_samples(4, 0), 0, 0, step_index=0)


def test_buffer_split_two_domains_128_128():
    buf = update_buffer([], _fake_samples(400, 0), 256, 0, step_index=0)
    assert len(buf) == 256
    buf = update_buffer(buf, _fake_samples(400, 1), 256, 0, step_index=1)
    counts = Counter(s.domain_id for s in buf)
    assert counts == {0: 128, 1: 128}


def test_buffer_split_three_domains_86_85_85():
    buf = []
    for d in range(3):
        buf = update_buffer(buf, _fake_samples(400, d), 256, 0, step_index=d)
    counts = Counter(s.domain_id for s in buf)
    assert counts == {0: 86, 1: 85, 2: 85}
    assert len(buf) == 256


def test_buffer_update_is_deterministic():
    def run():
        buf = []
        for d in range(2):
            buf = update_buffer(buf, _fake_samples(100, d), 64, 3, step_index=d)
        return [(s.domain_id, s.sample_id) for s in buf]

    assert run() == run()


def test_buffer_shortfall_keeps_all_and_warns(caplog):
    with caplog.at_level(logging.WARNING):
        buf = update_buffer([], _fake_samples(40, 0), 256, 0, step_index=0)
    assert sum(1 for s in buf if s.domain_id == 0) == 40
    assert any("shortfall" in r.message for r in caplog.records)


def test_buffer_rejects_duplicate_domain():
    buf = update_buffer([], _fake_samples(50, 0), 64, 0, step_index=0)
    with pytest.raises(UsageError):
        update_buffer(buf, _fake_samples(50, 0), 64, 0, step_index=1)


# ---------------------------------------------------------------------------
# Training steps


def _first_step(seed=0, n=40, epochs=2):
    samples = tiny_domain(n_places=n, domain_id=0)
    return samples, train_first_step(samples, tiny_config(epochs=epochs), seed)


def test_first_step_trains_without_distillation():
    samples, result = _first_step()
    assert result.snapshot.step_index == 0
    assert result.lambda_calls == 0  # schedule never consulted on step 0
    assert len(result.records) == 2
    for rec in result.records:
        assert rec.loss_rkd == 0.0 and rec.loss_dkd == 0.0
        assert rec.lam == 0.0
        assert np.isfinite(rec.loss_pr)


def test_first_step_is_deterministic():
    _, a = _first_step()
    _, b = _first_step()
    assert params_digest(a.snapshot.params) == params_digest(b.snapshot.params)


def test_continual_step_freezes_old_model():
    samples, first = _first_step()
    old = first.snapshot
    before = params_digest(old.params)
    new_samples = tiny_domain(n_places=40, seed=9, domain_id=1)
    buf = update_buffer([], samples, 32, 0, step_index=0)
    result = train_continual_step(old, new_samples, buf, tiny_config(), 1, 0)
    assert params_digest(old.params) == before
    assert result.snapshot.step_index == 1
    assert result.lambda_calls > 0
    assert params_digest(result.snapshot.params) != before


def test_teacher_encodes_each_input_once_per_step(monkeypatch):
    samples, first = _first_step()
    buf = update_buffer([], samples, 32, 0, step_index=0)
    new_samples = tiny_domain(n_places=40, seed=9, domain_id=1)
    rows = []
    real = rankfuse.continual.encode

    def counting(params, scans, normalize=True):
        rows.append(len(scans))
        return real(params, scans, normalize)

    monkeypatch.setattr(rankfuse.continual, "encode", counting)
    result = train_continual_step(first.snapshot, new_samples, buf, tiny_config(epochs=3), 1, 0)
    assert len(result.records) == 3
    assert sum(rows) == len(new_samples) + len(buf)


def test_continual_step_epoch_lambdas_follow_schedule():
    samples, first = _first_step()
    buf = update_buffer([], samples, 32, 0, step_index=0)
    new_samples = tiny_domain(n_places=40, seed=9, domain_id=1)
    cfg = tiny_config(loss={"lambda_variant": "incloud"}, epochs=3)
    result = train_continual_step(first.snapshot, new_samples, buf, cfg, 1, 0)
    from rankfuse.losses import relaxation_weight

    expected = [relaxation_weight(g, 3, "incloud") for g in range(3)]
    assert [r.lam for r in result.records] == pytest.approx(expected, abs=0)
    assert [r.lr for r in result.records] == [lr_at(cfg.plan, e) for e in range(3)]
    assert result.records[0].batch_size == cfg.plan.batch_start


def test_continual_step_without_buffer_is_fine_tuning():
    _, first = _first_step()
    new_samples = tiny_domain(n_places=40, seed=9, domain_id=1)
    cfg = tiny_config(loss={"rkd": False, "dkd": False})
    result = train_continual_step(first.snapshot, new_samples, [], cfg, 1, 0)
    assert result.lambda_calls == 0
    assert all(r.loss_rkd == 0.0 for r in result.records)


def test_continual_step_rejects_bad_buffers():
    samples, first = _first_step()
    new_samples = tiny_domain(n_places=40, seed=9, domain_id=1)
    cfg = tiny_config()
    # Buffer holding the domain currently being learned is a protocol bug.
    bad = update_buffer([], new_samples, 8, 0, step_index=1)
    with pytest.raises(ConfigurationError, match="domain"):
        train_continual_step(first.snapshot, new_samples, bad, cfg, 1, 0)


def test_step_without_new_samples_aborts():
    with pytest.raises(TrainingError, match="no batches"):
        train_first_step([], tiny_config(), 0)


def test_step_zero_must_use_first_step_api():
    _, first = _first_step()
    samples = tiny_domain(n_places=20)
    with pytest.raises(UsageError, match="step_index"):
        train_continual_step(first.snapshot, samples, [], tiny_config(), 0, 0)


# ---------------------------------------------------------------------------
# Run log


def test_epoch_record_wire_keys():
    _, result = _first_step()
    payload = json.loads(result.records[0].as_json())
    assert set(payload) == RUN_LOG_KEYS


def test_write_run_log_writes_the_records_whole(tmp_path):
    # Each call replaces the file with the records it is given.
    _, result = _first_step()
    path = tmp_path / "run_log.jsonl"
    write_run_log(result.records, path)
    write_run_log(2 * result.records, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2 * len(result.records)
    for line in lines:
        assert set(json.loads(line)) == RUN_LOG_KEYS
    assert [p.name for p in tmp_path.iterdir()] == ["run_log.jsonl"]


# ---------------------------------------------------------------------------
# Whole protocol


def test_run_protocol_produces_artifacts(tmp_path):
    cfg = load_config(SMOKE)
    snapshots, step_seconds = run_protocol(
        cfg, 0, build_protocol_data(cfg)[0], out_dir=tmp_path, digest="d"
    )
    assert len(snapshots) == 2
    assert snapshots[0].step_index == 0 and snapshots[1].step_index == 1
    assert (tmp_path / "step_0.snap").is_file()
    assert (tmp_path / "step_1.snap").is_file()
    assert (tmp_path / "run_log.jsonl").is_file()
    assert len(step_seconds) == 2


def test_run_protocol_rerun_is_identical(tmp_path):
    cfg = load_config(SMOKE)
    train = build_protocol_data(cfg)[0]
    a, _ = run_protocol(cfg, 0, train, out_dir=tmp_path / "a", digest="d")
    b, _ = run_protocol(cfg, 0, train, out_dir=tmp_path / "b", digest="d")
    for sa, sb in zip(a, b):
        assert params_digest(sa.params) == params_digest(sb.params)
    assert (tmp_path / "a" / "run_log.jsonl").read_bytes() == (
        tmp_path / "b" / "run_log.jsonl"
    ).read_bytes()


def test_build_protocol_data_sessions_are_disjoint():
    cfg = load_config(SMOKE)
    train, db, query = build_protocol_data(cfg)
    assert len(train) == len(db) == len(query) == 2
    assert len(train[0]) == 60 and len(db[0]) == 30 and len(query[0]) == 30
    # Database and query revisit the world on different sessions.
    assert not np.array_equal(db[0][0].scan.points, query[0][0].scan.points)
    assert all(s.domain_id == 1 for s in train[1])


def test_build_protocol_data_builds_each_world_once(monkeypatch, tmp_path):
    # The three sessions of a domain share its world; it is built once, also
    # by a run. A run makes domain 0's train split, then forks the lane that
    # makes the other splits and inherits domain 0's world. Each build is
    # logged to a file, so the lane's builds count too.
    import rankfuse.cli
    import rankfuse.data

    log = tmp_path / "worlds.log"

    def logged(seed, *args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{seed}\n")
        return _build_world.__wrapped__(seed, *args)

    monkeypatch.setattr(rankfuse.cli, "_usable_cpus", lambda: 2)
    for build in (lambda: build_protocol_data(load_config(SMOKE)),
                  lambda: rankfuse.cli.main(["run", "--config", str(SMOKE), "--out", str(tmp_path)])):
        log.write_text("")
        monkeypatch.setattr(rankfuse.data, "_build_world", functools.lru_cache(maxsize=16)(logged))
        build()
        # Each smoke domain's world, once: its other two sessions read the cache.
        assert sorted(log.read_text().split()) == ["101", "202"]
