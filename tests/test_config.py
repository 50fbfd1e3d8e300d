"""Config parsing, validation paths, digests, and command-line overrides."""

import dataclasses
from pathlib import Path

import pytest
import yaml

from rankfuse.config import (
    SCHEMA_ID,
    DomainConfig,
    ExperimentConfig,
    apply_overrides,
    config_digest,
    from_dict,
    load_config,
    parse_toggle_args,
)
from rankfuse.data import StyleParams
from rankfuse.errors import ConfigurationError

REFERENCE = Path(__file__).resolve().parent.parent / "configs" / "reference.yaml"
SMOKE = Path(__file__).resolve().parent.parent / "configs" / "smoke.yaml"


def _minimal(**extra):
    raw = {
        "schema": SCHEMA_ID,
        "domains": [{"name": "a", "seed": 1, "style": "plains"}],
    }
    raw.update(extra)
    return raw


# ---------------------------------------------------------------------------
# Parsing


def test_reference_config_loads():
    cfg = load_config(REFERENCE)
    assert len(cfg.domains) == 4
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.encoder.dim == 32
    assert cfg.plan.epochs == 20
    assert cfg.loss.lambda_variant == "incloud"
    assert cfg.fusion is True


def test_schema_id_required():
    with pytest.raises(ConfigurationError, match="schema"):
        from_dict({"domains": []})
    with pytest.raises(ConfigurationError, match="schema"):
        from_dict({"schema": "rankfuse/v0", "domains": []})


def test_unknown_fields_are_named():
    with pytest.raises(ConfigurationError, match="plan.warmup"):
        from_dict(_minimal(plan={"warmup": 5}))
    with pytest.raises(ConfigurationError, match="turbo"):
        from_dict(_minimal(turbo=True))


def test_field_validation_messages():
    with pytest.raises(ConfigurationError, match="encoder.dim"):
        from_dict(_minimal(encoder={"dim": 1}))
    with pytest.raises(ConfigurationError, match="plan.expansion_rate"):
        from_dict(_minimal(plan={"expansion_rate": 1.0}))
    with pytest.raises(ConfigurationError, match="plan.epochs: must be >= 1"):
        from_dict(_minimal(plan={"epochs": 0}))
    with pytest.raises(ConfigurationError, match="plan.batch_start: start 32 exceeds cap 16"):
        from_dict(_minimal(plan={"batch_start": 32, "batch_cap": 16}))
    with pytest.raises(ConfigurationError, match="buffer.fraction"):
        from_dict(_minimal(buffer={"fraction": 1.0}))
    with pytest.raises(ConfigurationError, match="buffer.fraction"):
        from_dict(_minimal(buffer={"fraction": 0.0}))
    with pytest.raises(ConfigurationError, match="loss"):
        from_dict(_minimal(loss={"pr": False, "rkd": False, "dkd": False}))
    with pytest.raises(ConfigurationError, match="seeds"):
        from_dict(_minimal(seeds=[]))
    with pytest.raises(ConfigurationError, match="seeds\\[1\\]"):
        from_dict(_minimal(seeds=[0, "one"]))
    # A bool is not an integer, and numpy's generators refuse negative seeds.
    with pytest.raises(ConfigurationError, match="seeds\\[0\\]: must be a non-negative integer"):
        from_dict(_minimal(seeds=[True]))
    with pytest.raises(ConfigurationError, match="seeds\\[1\\]: must be a non-negative integer"):
        from_dict(_minimal(seeds=[0, -2]))
    for seed in (-1, True):
        with pytest.raises(ConfigurationError, match="domains\\[a\\].seed: must be a non-negative"):
            from_dict(_minimal(domains=[{"name": "a", "seed": seed, "style": "plains"}]))
    with pytest.raises(ConfigurationError, match="forgetting_max"):
        from_dict(_minimal(forgetting_max="always"))


def test_duplicate_domain_names_rejected():
    raw = _minimal()
    raw["domains"] = [
        {"name": "a", "seed": 1, "style": "plains"},
        {"name": "a", "seed": 2, "style": "depot"},
    ]
    with pytest.raises(ConfigurationError, match="duplicate"):
        from_dict(raw)


def test_unknown_style_preset_rejected():
    with pytest.raises(ConfigurationError, match="unknown preset"):
        from_dict(_minimal(domains=[{"name": "a", "seed": 1, "style": "metropolis"}]))


def test_domain_config_checks_its_own_fields():
    # Built directly rather than by from_dict, a domain is checked alike.
    with pytest.raises(ConfigurationError, match="domains\\[a\\].seed"):
        DomainConfig(name="a", seed=-1)
    with pytest.raises(ConfigurationError, match="domains\\[a\\].train_places: must be >= 2"):
        DomainConfig(name="a", seed=1, train_places=1)
    with pytest.raises(ConfigurationError, match="domains\\[a\\].test_places: must be >= 2"):
        DomainConfig(name="a", seed=1, test_places=1)
    with pytest.raises(ConfigurationError, match="domains\\[a\\].style: unknown preset"):
        DomainConfig(name="a", seed=1, style="metropolis")


def test_inline_style_mapping_accepted():
    raw = _minimal(
        domains=[
            {
                "name": "a",
                "seed": 1,
                "style": {"plane_weight": 1.0, "box_weight": 0.0, "clutter_weight": 0.0},
            }
        ]
    )
    cfg = from_dict(raw)
    assert isinstance(cfg.domains[0].style_params(), StyleParams)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: [unclosed")
    with pytest.raises(ConfigurationError):
        load_config(bad)


# ---------------------------------------------------------------------------
# Digest


def test_digest_stable_across_loads():
    assert config_digest(load_config(REFERENCE)) == config_digest(load_config(REFERENCE))


def test_digest_tracks_any_field(tmp_path):
    cfg = load_config(SMOKE)
    moved = dataclasses.replace(cfg, plan=dataclasses.replace(cfg.plan, lr=2e-3))
    assert config_digest(cfg) != config_digest(moved)
    # Round trip through YAML: same digest.
    path = tmp_path / "copy.yaml"
    path.write_text(yaml.safe_dump(dataclasses.asdict(cfg)))
    assert config_digest(load_config(path)) == config_digest(cfg)


def test_digest_ignores_out_dir():
    # Same experiment written elsewhere is the same experiment.
    cfg = load_config(SMOKE)
    relocated = dataclasses.replace(cfg, out_dir="somewhere/else")
    assert config_digest(relocated) == config_digest(cfg)


# ---------------------------------------------------------------------------
# Overrides


def test_parse_toggle_args_flat_and_nested():
    assert parse_toggle_args(["rkd=off", "pr=on"]) == {"rkd": False, "pr": True}
    assert parse_toggle_args([["rkd=off", "dkd=off"], ["buffer=on"]]) == {
        "rkd": False,
        "dkd": False,
        "buffer": True,
    }
    assert parse_toggle_args(None) == {}
    with pytest.raises(ConfigurationError):
        parse_toggle_args(["rkd"])
    with pytest.raises(ConfigurationError):
        parse_toggle_args(["rkd=maybe"])


def test_apply_overrides_routes_toggles():
    cfg = load_config(SMOKE)
    out = apply_overrides(
        cfg,
        seed=9,
        toggles={"rkd": False, "buffer": False, "fusion": False},
        divergence="js",
        lambda_variant="literal",
    )
    assert out.seeds == (9,)
    assert out.loss.rkd is False and out.loss.pr is True
    assert out.buffer.enabled is False
    assert out.fusion is False
    assert out.loss.divergence == "js"
    assert out.loss.lambda_variant == "literal"
    # Original untouched.
    assert cfg.buffer.enabled is True
    # Toggles apply together: turning the only active term off and another on is valid.
    only_rkd = apply_overrides(cfg, toggles={"pr": False, "dkd": False})
    swapped = apply_overrides(only_rkd, toggles={"rkd": False, "pr": True})
    assert (swapped.loss.pr, swapped.loss.rkd, swapped.loss.dkd) == (True, False, False)


def test_apply_overrides_rejects_unknown_toggle():
    cfg = load_config(SMOKE)
    with pytest.raises(ConfigurationError, match="unknown term"):
        apply_overrides(cfg, toggles={"bogus": True})
    with pytest.raises(ConfigurationError):
        apply_overrides(cfg, toggles={"pr": False, "rkd": False, "dkd": False})
    with pytest.raises(ConfigurationError, match="loss.divergence"):
        apply_overrides(cfg, divergence="hellinger")


def test_apply_overrides_out_dir():
    cfg = load_config(SMOKE)
    out = apply_overrides(cfg, out="/tmp/elsewhere")
    assert out.out_dir == "/tmp/elsewhere"
