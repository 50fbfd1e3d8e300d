"""Shared fixtures: tiny domains and configs sized for sub-second tests."""

import threading

import numpy as np
import pytest

from rankfuse.config import (DomainSpec, EncoderConfig, ExperimentConfig, LossConfig, PairPolicy,
                             PlanConfig, StyleParams)
from rankfuse.data import generate_domain

TINY_STYLE = StyleParams(
    plane_weight=0.5,
    box_weight=0.3,
    clutter_weight=0.2,
    landmark_density=0.4,
    visibility_radius=45.0,
    noise=0.02,
    yaw_jitter=0.1,
)


def tiny_domain(seed=7, n_places=40, session=0, points=32, style=TINY_STYLE, domain_id=0):
    spec = DomainSpec(
        seed=seed,
        n_places=n_places,
        trajectory_length=300.0,
        style=style,
        session=session,
    )
    return generate_domain(spec, points_per_scan=points, domain_id=domain_id)


def tiny_config(pairs=None, loss=None, **plan):
    """An ExperimentConfig whose training steps take well under a second.

    ``loss`` holds LossConfig overrides; keyword arguments override the plan.
    """
    plan = {**dict(epochs=2, lr=1e-3, lr_drop_epoch=1, batch_start=8, batch_cap=16), **plan}
    return ExperimentConfig(
        encoder=EncoderConfig(hidden=8, dim=8),
        pairs=pairs or PairPolicy(),
        loss=LossConfig(**(loss or {})),
        plan=PlanConfig(**plan),
    )


@pytest.fixture
def policy():
    return PairPolicy(pos_train=10.0, neg_train=50.0, pos_test=25.0)


@pytest.fixture
def unit_rows():
    def make(n, d, seed=0):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n, d))
        return e / np.linalg.norm(e, axis=1, keepdims=True)

    return make


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive: no library call may leave one running."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"
