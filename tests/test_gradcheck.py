"""Finite-difference harness: tolerances, kink handling, negative controls."""

import numpy as np
import pytest

from rankfuse import cli, gradcheck
from rankfuse.errors import UsageError
from rankfuse.gradcheck import check_gradient


def test_quadratic_gradient_passes():
    x = np.array([1.0, -2.0, 0.5])
    report = check_gradient(lambda v: float(v @ v), 2.0 * x, x, name="quad")
    assert report.passed
    assert report.max_rel_error < 1e-6
    assert report.checked == 3
    assert report.skipped_kinks == 0


def test_corrupted_gradient_fails():
    x = np.array([1.0, -2.0, 0.5])
    report = check_gradient(lambda v: float(v @ v), 2.0 * x, x, name="quad", corrupt=0.05)
    assert not report.passed
    assert "FAIL" in report.line()


def test_kink_coordinates_are_skipped():
    # |x| at a coordinate inside the probe width: central difference is
    # meaningless there and must be excluded, not failed.
    x = np.array([5e-5, 3.0])
    grad = np.array([0.0, 1.0])  # subgradient 0 at the kink
    report = check_gradient(lambda v: float(np.sum(np.abs(v))), grad, x, name="abs")
    assert report.passed
    assert report.skipped_kinks == 1
    assert report.checked == 1


def test_all_kinks_is_a_usage_error():
    x = np.array([1e-6])
    with pytest.raises(UsageError):
        check_gradient(lambda v: float(np.sum(np.abs(v))), np.zeros(1), x)


def test_report_line_format():
    x = np.ones(2)
    report = check_gradient(lambda v: float(v @ v), 2.0 * x, x, name="probe")
    line = report.line()
    assert line.startswith("probe: ok max_rel_err=")
    assert "checked=2" in line
    assert "kinks_skipped=0" in line


def test_suite_aggregates_reports(monkeypatch, capsys):
    x = np.ones(2)
    good = check_gradient(lambda v: float(v @ v), 2.0 * x, x, name="good")
    bad = check_gradient(lambda v: float(v @ v), 3.0 * x, x, name="bad")
    monkeypatch.setattr(gradcheck, "gradcheck_suite", lambda *a, **k: [good, bad])
    assert cli.main(["gradcheck"]) == cli.EXIT_GRADCHECK
    out, err = capsys.readouterr()
    assert out.splitlines() == [good.line(), bad.line()]
    assert "gradient check failed: bad" in err
    monkeypatch.setattr(gradcheck, "gradcheck_suite", lambda *a, **k: [good])
    assert cli.main(["gradcheck"]) == cli.EXIT_OK
    assert capsys.readouterr().out == good.line() + "\n"


@pytest.mark.parametrize("n", range(3, 9))
def test_random_relation_has_valid_anchors(n):
    # Each row with a square-mate has a positive and a negative.
    for seed in range(5):
        relation = gradcheck._random_relation(np.random.default_rng(seed), n)
        valid = relation.positive.any(axis=1) & relation.negative.any(axis=1)
        assert valid.sum() == n - (n == 3), (seed, valid)


@pytest.mark.parametrize("batch, dim, points", [(5, 8, 32), (4, 6, 16)])
def test_batch_hard_case_checks_a_nonzero_gradient(batch, dim, points):
    # The CLI default and the pinned tier-1 case: batch-hard mining finds
    # active triplets, so its check compares more than zeros.
    cases = {name: grad for name, _, grad, _ in gradcheck._cases(0, batch, dim, points)}
    assert np.count_nonzero(cases["batch_hard_triplet"]) > 0


def test_suite_refuses_a_batch_without_anchors():
    with pytest.raises(UsageError, match="batch must be >= 3"):
        gradcheck.gradcheck_suite(0, 2, 8, 32)
