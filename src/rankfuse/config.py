"""Experiment configuration: YAML schema, validation, and stable digests.

A config file fully determines an experiment together with a seed. The
sha256 digest of the canonically serialized config is recorded in every
snapshot so evaluation can refuse mismatched artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import yaml

from .data import STYLE_PRESETS, PairPolicy, StyleParams
from .errors import ConfigurationError
from .evaluation import FORGETTING_MODES
from .losses import DIVERGENCES, LAMBDA_VARIANTS, RKD_NORMS

SCHEMA_ID = "rankfuse/v1"

_TOGGLE_NAMES = ("pr", "rkd", "dkd", "buffer", "fusion")


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigurationError(f"{path}: {msg}")


def _require_choice(value, choices: tuple, path: str):
    _require(value in choices, path, f"must be one of {choices}, got {value!r}")


def _require_finite(value, path: str):
    _require(math.isfinite(value), path, f"must be finite, got {value!r}")


def _require_seed(value, path: str):
    # bool is an int subclass, but `true` is not a seed.
    ok = isinstance(value, int) and not isinstance(value, bool) and value >= 0
    _require(ok, path, f"must be a non-negative integer, got {value!r}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": ("a number", _is_number),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "tuple": ("a list of numbers",
              lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}


def _require_types(section, path: str, values: dict | None = None):
    # Before any range check, which would fail on a wrong type with a
    # message that names neither the field nor the cause. YAML 1.1 reads
    # 1e9 as a string; bool is an int subclass, but `true` is not a count.
    # ``values`` are the raw fields of ``section``, a class, not yet built.
    values = vars(section) if values is None else values
    for f in fields(section):
        kind = _KINDS.get(f.type)
        if kind is not None and f.name in values:
            value = values[f.name]
            _require(kind[1](value), f"{path}.{f.name}", f"must be {kind[0]}, got {value!r}")


# Each section validates its own fields on construction, so a config built by
# from_dict, by apply_overrides (via replace) or directly is checked alike.


@dataclass(frozen=True)
class EncoderConfig:
    hidden: int = 24
    dim: int = 32
    normalize: bool = True
    points_per_scan: int = 48

    def __post_init__(self):
        _require_types(self, "encoder")
        _require(self.hidden >= 1, "encoder.hidden", f"must be >= 1, got {self.hidden}")
        _require(self.dim >= 2, "encoder.dim", f"must be >= 2, got {self.dim}")
        _require(
            self.points_per_scan >= 1,
            "encoder.points_per_scan",
            f"must be >= 1, got {self.points_per_scan}",
        )


@dataclass(frozen=True)
class LossConfig:
    margin: float = 0.2
    rank_temp: float = 0.1
    dist_temp: float = 1.0
    divergence: str = "skl"
    rkd_norm: str = "cubic"
    lambda_variant: str = "literal"
    pr: bool = True
    rkd: bool = True
    dkd: bool = True

    def __post_init__(self):
        _require_types(self, "loss")
        for name in ("margin", "rank_temp", "dist_temp"):
            _require_finite(getattr(self, name), f"loss.{name}")
        _require(self.margin >= 0, "loss.margin", f"must be >= 0, got {self.margin}")
        _require(self.rank_temp > 0, "loss.rank_temp", f"must be > 0, got {self.rank_temp}")
        _require(self.dist_temp > 0, "loss.dist_temp", f"must be > 0, got {self.dist_temp}")
        _require_choice(self.divergence, DIVERGENCES, "loss.divergence")
        _require_choice(self.rkd_norm, RKD_NORMS, "loss.rkd_norm")
        _require_choice(self.lambda_variant, LAMBDA_VARIANTS, "loss.lambda_variant")
        _require(self.pr or self.rkd or self.dkd, "loss", "all loss terms toggled off")


@dataclass(frozen=True)
class PlanConfig:
    epochs: int = 60
    batch_start: int = 16
    batch_cap: int = 256
    expansion_rate: float = 1.4
    active_threshold: float = 0.7
    lr: float = 1e-4
    lr_drop_epoch: int = 30
    lr_drop_factor: float = 0.1
    weight_decay: float = 1e-3

    def __post_init__(self):
        _require_types(self, "plan")
        _require(self.epochs >= 1, "plan.epochs", f"must be >= 1, got {self.epochs}")
        _require(
            self.batch_start <= self.batch_cap,
            "plan.batch_start",
            f"start {self.batch_start} exceeds cap {self.batch_cap}",
        )
        _require(self.batch_start >= 2, "plan.batch_start", f"must be >= 2, got {self.batch_start}")
        _require_finite(self.expansion_rate, "plan.expansion_rate")
        _require(
            self.expansion_rate > 1,
            "plan.expansion_rate",
            f"must be > 1, got {self.expansion_rate}",
        )
        _require(self.lr > 0, "plan.lr", f"must be > 0, got {self.lr}")
        _require(self.weight_decay >= 0, "plan.weight_decay", f"must be >= 0, got {self.weight_decay}")
        _require(
            0.0 <= self.active_threshold <= 1.0,
            "plan.active_threshold",
            f"must be in [0, 1], got {self.active_threshold}",
        )


@dataclass(frozen=True)
class BufferConfig:
    capacity: int = 256
    fraction: float = 0.25
    enabled: bool = True

    def __post_init__(self):
        _require_types(self, "buffer")
        _require(self.capacity >= 1, "buffer.capacity", f"must be >= 1, got {self.capacity}")
        _require(
            0.0 < self.fraction < 1.0,
            "buffer.fraction",
            f"must be in (0, 1), got {self.fraction}",
        )


@dataclass(frozen=True)
class DomainConfig:
    name: str
    seed: int
    train_places: int = 400
    test_places: int = 200
    trajectory_length: float = 900.0
    style: str | StyleParams = "plains"

    def __post_init__(self):
        path = f"domains[{self.name}]"
        _require_seed(self.seed, f"{path}.seed")
        length = self.trajectory_length
        number = isinstance(length, (int, float)) and not isinstance(length, bool)
        _require(number and math.isfinite(length) and length > 0, f"{path}.trajectory_length",
                 f"must be a finite number > 0, got {length!r}")
        _require_types(self, path)
        _require(self.train_places >= 2, f"{path}.train_places", "must be >= 2")
        _require(self.test_places >= 2, f"{path}.test_places", "must be >= 2")
        self.style_params()  # validates preset names

    def style_params(self) -> StyleParams:
        if isinstance(self.style, StyleParams):
            return self.style
        if self.style not in STYLE_PRESETS:
            raise ConfigurationError(
                f"domains[{self.name}].style: unknown preset {self.style!r}"
            )
        return STYLE_PRESETS[self.style]


@dataclass(frozen=True)
class ExperimentConfig:
    schema: str = SCHEMA_ID
    seeds: tuple = (0,)
    out_dir: str = "runs/out"
    fusion: bool = True
    forgetting_max: str = "printed"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pairs: PairPolicy = field(default_factory=PairPolicy)
    loss: LossConfig = field(default_factory=LossConfig)
    plan: PlanConfig = field(default_factory=PlanConfig)
    buffer: BufferConfig = field(default_factory=BufferConfig)
    domains: tuple = ()


def _build(cls, raw: dict, path: str):
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {type(raw).__name__}")
    known = {f for f in cls.__dataclass_fields__}
    for key in raw:
        if key not in known:
            raise ConfigurationError(f"{path}.{key}: unknown field")
    if cls in (PairPolicy, StyleParams):  # data.py's classes check ranges, not types
        _require_types(cls, path, raw)
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except ConfigurationError as exc:
        # PairPolicy and StyleParams name a bad field "<class>.<field>": put
        # its config path in place of the class name.
        msg = str(exc)
        if not msg.startswith(cls.__name__):
            raise
        raise ConfigurationError(path + msg[len(cls.__name__):]) from None


def from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed mapping into an ExperimentConfig.

    Raises ConfigurationError naming the offending field path.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config root: expected a mapping, got {type(raw).__name__}")
    raw = dict(raw)
    schema = raw.pop("schema", None)
    _require(schema == SCHEMA_ID, "schema", f"expected {SCHEMA_ID!r}, got {schema!r}")

    known_top = {f for f in ExperimentConfig.__dataclass_fields__}
    for key in raw:
        if key not in known_top:
            raise ConfigurationError(f"{key}: unknown field")

    enc = _build(EncoderConfig, raw.get("encoder", {}), "encoder")
    pairs = _build(PairPolicy, raw.get("pairs", {}), "pairs")
    loss = _build(LossConfig, raw.get("loss", {}), "loss")
    plan = _build(PlanConfig, raw.get("plan", {}), "plan")
    buf = _build(BufferConfig, raw.get("buffer", {}), "buffer")

    seeds = raw.get("seeds", [0])
    _require(
        isinstance(seeds, (list, tuple)) and len(seeds) > 0,
        "seeds",
        "must be a non-empty list of integers",
    )
    for i, s in enumerate(seeds):
        _require_seed(s, f"seeds[{i}]")

    fusion = raw.get("fusion", True)
    _require(isinstance(fusion, bool), "fusion", f"must be a boolean, got {fusion!r}")
    fmode = raw.get("forgetting_max", "printed")
    _require_choice(fmode, FORGETTING_MODES, "forgetting_max")

    domains_raw = raw.get("domains", [])
    _require(isinstance(domains_raw, list), "domains", "must be a list")
    domains = []
    names = set()
    for i, d in enumerate(domains_raw):
        if isinstance(d, dict) and isinstance(d.get("style"), dict):
            d = dict(d)
            d["style"] = _build(StyleParams, d["style"], f"domains[{i}].style")
        dom = _build(DomainConfig, d, f"domains[{i}]")
        _require(dom.name not in names, f"domains[{i}].name", f"duplicate name {dom.name!r}")
        names.add(dom.name)
        domains.append(dom)

    return ExperimentConfig(
        schema=SCHEMA_ID,
        seeds=tuple(seeds),
        out_dir=str(raw.get("out_dir", "runs/out")),
        fusion=fusion,
        forgetting_max=fmode,
        encoder=enc,
        pairs=pairs,
        loss=loss,
        plan=plan,
        buffer=buf,
        domains=tuple(domains),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config file {path}: {exc}")
    return from_dict(raw if raw is not None else {})


def apply_overrides(
    cfg: ExperimentConfig,
    seed: int | None = None,
    out: str | None = None,
    toggles: dict | None = None,
    lambda_variant: str | None = None,
    divergence: str | None = None,
) -> ExperimentConfig:
    """Apply command-line overrides; replace() re-validates each section."""
    loss_changes = {}
    buf = cfg.buffer
    fus = cfg.fusion
    for name, value in (toggles or {}).items():
        if name not in _TOGGLE_NAMES:
            raise ConfigurationError(f"--toggle: unknown term {name!r}, expected {_TOGGLE_NAMES}")
        if name == "buffer":
            buf = replace(buf, enabled=value)
        elif name == "fusion":
            fus = value
        else:
            loss_changes[name] = value
    if lambda_variant is not None:
        loss_changes["lambda_variant"] = lambda_variant
    if divergence is not None:
        loss_changes["divergence"] = divergence
    return replace(
        cfg,
        loss=replace(cfg.loss, **loss_changes),
        buffer=buf,
        fusion=fus,
        seeds=(seed,) if seed is not None else cfg.seeds,
        out_dir=out if out is not None else cfg.out_dir,
    )


def config_digest(cfg: ExperimentConfig) -> str:
    """sha256 over the canonical JSON form; stable across dict ordering.

    out_dir is excluded: it decides where artifacts land, not what the
    experiment computes, and results must not change when it does.
    """
    d = asdict(cfg)
    d.pop("out_dir")
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_toggle_args(items) -> dict:
    """Parse `name=on|off` strings (flat or nested lists) into {name: bool}."""
    flat = []
    for item in items or ():
        flat.extend(item) if isinstance(item, (list, tuple)) else flat.append(item)
    out = {}
    for item in flat:
        if "=" not in item:
            raise ConfigurationError(f"--toggle: expected name=on|off, got {item!r}")
        name, _, value = item.partition("=")
        if value not in ("on", "off"):
            raise ConfigurationError(f"--toggle {name}: expected on|off, got {value!r}")
        out[name.strip()] = value == "on"
    return out
