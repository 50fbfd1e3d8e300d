"""Config parsing, validation paths, digests, and command-line overrides."""

import copy
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfuse.config import (
    SCHEMA_ID,
    BufferConfig,
    DomainConfig,
    EncoderConfig,
    ExperimentConfig,
    LossConfig,
    PlanConfig,
    apply_overrides,
    config_digest,
    from_dict,
    load_config,
    parse_toggle_args,
)
from rankfuse.data import STYLE_PRESETS, DomainSpec, PairPolicy, StyleParams, generate_domain
from rankfuse.encoder import init_params
from rankfuse.errors import ConfigurationError
from rankfuse.evaluation import forgetting_score
from rankfuse.losses import distribution_distill_loss, ranking_distill_loss

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
    # Pair thresholds and inline styles are checked by their data classes'
    # rules; the message names the config path, not the class.
    with pytest.raises(ConfigurationError, match="^pairs.pos_train: must be > 0, got 0.0$"):
        from_dict(_minimal(pairs={"pos_train": 0.0}))
    with pytest.raises(ConfigurationError, match="^pairs.neg_train: must exceed pos_train"):
        from_dict(_minimal(pairs={"neg_train": 5.0}))
    for section, name in [("loss", "margin"), ("loss", "rank_temp"), ("loss", "dist_temp"),
                          ("pairs", "pos_train"), ("pairs", "neg_train"), ("pairs", "pos_test"),
                          ("plan", "expansion_rate")]:
        for value in (float("inf"), float("nan")):
            with pytest.raises(ConfigurationError,
                               match=f"^{section}.{name}: must be finite, got {value}$"):
                from_dict(_minimal(**{section: {name: value}}))
    style = {"name": "a", "seed": 1, "style": {"noise": -1.0}}
    with pytest.raises(ConfigurationError,
                       match="^domains\\[a\\].style.noise: must be >= 0, got -1.0$"):
        from_dict(_minimal(domains=[style]))


def test_field_types_are_checked_before_ranges():
    # Each int, float and bool field names itself and the value it got.
    cases = [("encoder", "hidden", 2.5, "an integer"), ("encoder", "normalize", "yes", "a boolean"),
             ("encoder", "points_per_scan", True, "an integer"), ("plan", "epochs", 1.5, "an integer"),
             ("plan", "batch_cap", "1e9", "an integer"), ("plan", "lr_drop_epoch", "x", "an integer"),
             ("plan", "lr", "1e-4", "a number"), ("loss", "margin", "0.2", "a number"),
             ("loss", "rkd", 1, "a boolean"), ("buffer", "capacity", 2.5, "an integer"),
             ("buffer", "enabled", "no", "a boolean")]
    for section, name, value, kind in cases:
        with pytest.raises(ConfigurationError,
                           match=f"^{section}.{name}: must be {kind}, got {value!r}$"):
            from_dict(_minimal(**{section: {name: value}}))
    with pytest.raises(ConfigurationError,
                       match="^domains\\[a\\].train_places: must be an integer, got 2.5$"):
        from_dict(_minimal(domains=[{"name": "a", "seed": 1, "train_places": 2.5}]))
    # An int is a number, and stays an int, so the config digest keeps it.
    assert from_dict(_minimal(plan={"lr": 1})).plan.lr == 1


def test_plan_rates_and_lr_drop_are_bounded():
    # Each was accepted before, from a file and built directly.
    cases = [("lr", math.inf, "must be finite, got inf"), ("lr", 0.0, "must be > 0, got 0.0"),
             ("weight_decay", math.inf, "must be finite, got inf"),
             ("weight_decay", -1e-3, "must be >= 0, got -0.001"),
             ("lr_drop_factor", -1.0, "must be > 0, got -1.0"),
             ("lr_drop_factor", math.nan, "must be finite, got nan"),
             ("lr_drop_epoch", -5, "must be >= 0, got -5")]
    for name, value, message in cases:
        match = f"^plan.{name}: {re.escape(message)}$"
        with pytest.raises(ConfigurationError, match=match):
            from_dict(_minimal(plan={name: value}))
        with pytest.raises(ConfigurationError, match=match):
            PlanConfig(**{name: value})
    assert PlanConfig(lr_drop_epoch=0, weight_decay=0.0).lr_drop_epoch == 0


def _direct_calls():
    """(config section or None, field, call taking the field's value) for
    each public function that checks an argument by a config field's rule."""
    e = np.eye(3)
    spec = DomainSpec(seed=1, n_places=2, style=STYLE_PRESETS["plains"])
    return [("encoder", "hidden", lambda v: init_params(0, v, 8)),
            ("encoder", "dim", lambda v: init_params(0, 8, v)),
            ("encoder", "points_per_scan", lambda v: generate_domain(spec, points_per_scan=v)),
            (None, "forgetting_max", lambda v: forgetting_score(np.eye(2), mode=v)),
            ("loss", "rkd_norm", lambda v: ranking_distill_loss(e, e, 0.1, norm=v)),
            ("loss", "divergence", lambda v: distribution_distill_loss(e, e, 1.0, divergence=v))]


@pytest.mark.parametrize("section, name, call", _direct_calls(),
                         ids=[name for _, name, _ in _direct_calls()])
def test_direct_calls_refuse_what_the_config_refuses(section, name, call):
    # The same values, refused with the same message, and the bound itself
    # accepted by both.
    bad = {"hidden": [0, -1, 2.5, True], "dim": [1, 0, 2.5], "points_per_scan": [0, -3, 1.5],
           "forgetting_max": ["always", 3], "rkd_norm": ["linear", None],
           "divergence": ["tv", "KL"]}[name]
    edge = {"hidden": 1, "dim": 2, "points_per_scan": 1, "forgetting_max": "from_t",
            "rkd_norm": "quadratic", "divergence": "js"}[name]

    def raw(value):
        return _minimal(**({section: {name: value}} if section else {name: value}))

    for value in bad:
        with pytest.raises(ConfigurationError) as from_config:
            from_dict(raw(value))
        with pytest.raises(ConfigurationError) as direct:
            call(value)
        assert str(direct.value) == str(from_config.value), value
        assert str(direct.value).startswith(f"{section + '.' if section else ''}{name}: must be ")
    from_dict(raw(edge))
    call(edge)


def test_pair_and_inline_style_types_are_checked_before_ranges():
    def style(**fields):
        return _minimal(domains=[{"name": "a", "seed": 1, "style": fields}])

    cases = [(_minimal(pairs={"pos_test": True}), "pairs.pos_test", "a number", True),
             (_minimal(pairs={"neg_train": "60"}), "pairs.neg_train", "a number", "60"),
             (style(yaw_jitter=True), "domains\\[a\\].style.yaw_jitter", "a number", True),
             (style(noise="x"), "domains\\[a\\].style.noise", "a number", "x"),
             (style(axis_scale="abc"), "domains\\[a\\].style.axis_scale", "a list of numbers", "abc"),
             (style(axis_scale=[1.0, "2", 1.0]), "domains\\[a\\].style.axis_scale",
              "a list of numbers", [1.0, "2", 1.0])]
    for raw, path, kind, value in cases:
        with pytest.raises(ConfigurationError,
                           match=f"^{path}: must be {kind}, got {re.escape(repr(value))}$"):
            from_dict(raw)
    # Right types still meet the range checks, under the config path: a
    # NaN noise or an infinite yaw jitter used to reach the generator.
    for fields, message in [({"axis_scale": [1.0, 2.0]}, "axis_scale: must be 3 finite numbers > 0"),
                            ({"axis_scale": [1.0, math.inf, 1.0]}, "axis_scale: must be 3 finite"),
                            ({"noise": math.nan}, "noise: must be finite, got nan"),
                            ({"yaw_jitter": math.inf}, "yaw_jitter: must be finite, got inf")]:
        with pytest.raises(ConfigurationError, match=f"^domains\\[a\\].style.{message}"):
            from_dict(style(**fields))
    assert from_dict(style(axis_scale=[1, 2, 3])).domains[0].style.axis_scale == (1.0, 2.0, 3.0)


def test_duplicate_domain_names_rejected():
    raw = _minimal()
    raw["domains"] = [
        {"name": "a", "seed": 1, "style": "plains"},
        {"name": "a", "seed": 2, "style": "depot"},
    ]
    with pytest.raises(ConfigurationError, match="^domains\\[a\\].name: duplicate name 'a'$"):
        from_dict(raw)


def test_a_domain_without_a_string_name_is_named_by_its_index():
    # Its style's fields and its own carry the same path.
    for name in ({}, {"name": 7}):
        with pytest.raises(ConfigurationError, match="^domains\\[1\\].style.noise: must be >= 0"):
            from_dict(_minimal(domains=[{"name": "a", "seed": 1},
                                        {**name, "seed": 2, "style": {"noise": -1.0}}]))
    with pytest.raises(ConfigurationError, match="^domains\\[0\\].seed: must be a non-negative"):
        from_dict(_minimal(domains=[{"name": 7, "seed": -1}]))


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
    for length, message in [(-5.0, "> 0, got -5.0"), (0.0, "> 0, got 0.0"),
                            (float("nan"), "finite, got nan"), (float("inf"), "finite, got inf"),
                            (True, "a number, got True"), ("900", "a number, got '900'")]:
        with pytest.raises(ConfigurationError,
                           match=f"^domains\\[a\\].trajectory_length: must be {message}$"):
            DomainConfig(name="a", seed=1, trajectory_length=length)


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


# sha256 config digests of every committed config, taken before the rules were
# declared beside the fields: checking converts nothing, so none may move.
CONFIG_DIGESTS = {
    "benchmarks/configs/quick/reference_short.yaml":
        "9f973b207444dbc815d826fdc252d1b50427dea294347cfe595c9a3a294d0e00",
    "benchmarks/configs/quick/retrieval_eval.yaml":
        "38f1a8c04a7b251e1b2d1e19c63dcc70aa0382066d1db7c15f7901c7134ec3e2",
    "benchmarks/configs/quick/wide_batch_distill.yaml":
        "a638203f6ed17900daf378aced15007c2c2bb1506a3643b791b35d2cb830c297",
    "benchmarks/configs/reference_short.yaml":
        "1bb0e8e298c6614527404a5a09332cca98a0541dffe6306d93e01bc08f166fa6",
    "benchmarks/configs/retrieval_eval.yaml":
        "9f4cb8447e944fc84915cb94ad15d544f9d940e2f3cc31b677f1da17d8ac3e6c",
    "benchmarks/configs/wide_batch_distill.yaml":
        "2004c22d6200f9cc433fbc83087f03d888bc34b15e97c175ea7ba8cecc8ac551",
    "configs/reference.yaml": "24c88401afa7af25fd337c7d6ed2c082e05bc1dd27c65245629149513075415b",
    "configs/smoke.yaml": "a6495ee3b4e07314f531450ecae1c55ae600d7b047f62a50258dc9803af96e1f",
}


def test_config_digests_are_pinned():
    root = REFERENCE.parent.parent
    found = sorted(p.relative_to(root).as_posix()
                   for d in ("configs", "benchmarks/configs") for p in (root / d).rglob("*.yaml"))
    assert found == sorted(CONFIG_DIGESTS)
    for name, digest in CONFIG_DIGESTS.items():
        assert config_digest(load_config(root / name)) == digest, name


# ---------------------------------------------------------------------------
# Declared rules

# Where each class's fields sit in a parsed smoke config, and the path its
# messages carry: the first domain is "plains", and its inline style is named
# by the domain's name too.
_PLACES = [(ExperimentConfig, (), ""), (EncoderConfig, ("encoder",), "encoder."),
           (PairPolicy, ("pairs",), "pairs."), (LossConfig, ("loss",), "loss."),
           (PlanConfig, ("plan",), "plan."), (BufferConfig, ("buffer",), "buffer."),
           (DomainConfig, ("domains", 0), "domains[plains]."),
           (StyleParams, ("domains", 0, "style"), "domains[plains].style.")]
_NOT_OF_KIND = {"int": ["8", 2.5, [1]], "seed": ["8", 2.5, -1], "float": ["0.5", [0.5], None],
                "bool": ["yes", 1, None], "tuple": ["abc", [1.0, "2", 1.0], 1.0]}


def _declared():
    """(place, path, kind, rule) for each field that declares a rule."""
    return [(where + (f.name,), prefix + f.name, f.metadata["rule"].get("kind", f.type),
             f.metadata["rule"])
            for cls, where, prefix in _PLACES for f in dataclasses.fields(cls)
            if "rule" in f.metadata]


def test_declared_rules_cover_the_bounded_fields():
    # Written out by hand, so that an empty schema cannot pass the test below.
    bounded = {path for _, path, _, rule in _declared()
               if {"min", "gt", "max", "lt"} & set(rule)}
    assert bounded == {
        "encoder.hidden", "encoder.dim", "encoder.points_per_scan", "pairs.pos_train",
        "pairs.pos_test", "loss.margin", "loss.rank_temp", "loss.dist_temp", "plan.epochs",
        "plan.batch_start", "plan.expansion_rate", "plan.active_threshold", "plan.lr",
        "plan.lr_drop_epoch", "plan.lr_drop_factor", "plan.weight_decay", "buffer.capacity",
        "buffer.fraction", "domains[plains].train_places", "domains[plains].test_places",
        "domains[plains].trajectory_length", "domains[plains].style.plane_weight",
        "domains[plains].style.box_weight", "domains[plains].style.clutter_weight",
        "domains[plains].style.landmark_density", "domains[plains].style.visibility_radius",
        "domains[plains].style.noise", "domains[plains].style.height_scale",
    }
    kinds = {path: kind for _, path, kind, _ in _declared()}
    assert kinds["domains[plains].seed"] == "seed" and kinds["loss.pr"] == "bool"
    assert {path for _, path, _, rule in _declared() if "choices" in rule} == {
        "forgetting_max", "loss.divergence", "loss.rkd_norm", "loss.lambda_variant"}


def _past(rule, kind):
    """A value just past each bound the rule declares."""
    nudge = (lambda b, d: b + d) if kind == "int" else (lambda b, d: math.nextafter(b, d * math.inf))
    past = {"min": lambda b: nudge(b, -1), "gt": lambda b: b,
            "max": lambda b: nudge(b, 1), "lt": lambda b: b}
    return [step(rule[key]) for key, step in past.items() if key in rule]


def _bad_values(kind, rule):
    """A strategy of values the rule must refuse: wrong types, bools for
    numbers, YAML 1.1 exponent strings, NaN and infinities, and values past
    each declared bound (the nearest ones among them)."""
    fixed = ["1e9", math.nan, math.inf, -math.inf, *_past(rule, kind), *_NOT_OF_KIND.get(kind, [])]
    if kind in ("int", "seed", "float"):
        fixed.append(True)
    beyond = {"int": {"min": lambda b: st.integers(max_value=b - 1),
                      "max": lambda b: st.integers(min_value=b + 1)},
              "float": {"min": lambda b: st.floats(max_value=b, exclude_max=True),
                        "gt": lambda b: st.floats(max_value=b),
                        "max": lambda b: st.floats(min_value=b, exclude_min=True),
                        "lt": lambda b: st.floats(min_value=b)}}.get(kind, {})
    strategies = [st.sampled_from(fixed)]
    strategies += [past(rule[key]) for key, past in beyond.items() if key in rule]
    if "choices" in rule:
        strategies += [st.sampled_from([3, True, None]),
                       st.text().filter(lambda t: t not in rule["choices"])]
    return st.one_of(strategies)


_SMOKE_RAW = yaml.safe_load(SMOKE.read_text())


def _case_id(where, path):
    """A case's ID: its message path, except that an inline style's fields
    are named by the index of the YAML list entry that the case edits."""
    return f"domains[0].style.{where[-1]}" if "style" in where else path


@pytest.mark.parametrize("where, path, kind, rule",
                         _declared(), ids=[_case_id(w, path) for w, path, _, _ in _declared()])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_each_declared_rule_rejects_a_bad_value_by_its_path(where, path, kind, rule, data):
    value = data.draw(_bad_values(kind, rule))
    raw = copy.deepcopy(_SMOKE_RAW)
    if "style" in where:
        raw["domains"][0]["style"] = {}  # an inline style table
    table = raw
    for key in where[:-1]:
        table = table[key] if isinstance(key, int) else table.setdefault(key, {})
    table[where[-1]] = value
    with pytest.raises(ConfigurationError) as exc:
        from_dict(raw)
    assert str(exc.value).startswith(f"{path}: "), (value, str(exc.value))


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
