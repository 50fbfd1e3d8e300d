"""Experiment configuration: YAML schema, validation, and stable digests.

A config file fully determines an experiment together with a seed. The
sha256 digest of the canonically serialized config is recorded in every
snapshot so evaluation can refuse mismatched artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import yaml

from .data import STYLE_PRESETS, PairPolicy, StyleParams
from .errors import ConfigurationError, check, require, require_kind, rule

SCHEMA_ID = "rankfuse/v1"

# The one definition of each loss choice: LossConfig checks its fields and
# the `run` overrides against these.
DIVERGENCES = ("skl", "kl", "js")
LAMBDA_VARIANTS = ("literal", "incloud")
RKD_NORMS = ("cubic", "quadratic")
# How forgetting_score takes an earlier task's best recall.
FORGETTING_MODES = ("printed", "from_t")

_TOGGLE_NAMES = ("pr", "rkd", "dkd", "buffer", "fusion")


# Each field declares its rule beside itself, and each section checks itself
# on construction, so a config built by from_dict, by apply_overrides (via
# replace) or directly is checked alike.


@dataclass(frozen=True)
class EncoderConfig:
    hidden: int = rule(24, min=1)
    dim: int = rule(32, min=2)
    normalize: bool = rule(True)
    points_per_scan: int = rule(48, min=1)

    def __post_init__(self):
        check(self, "encoder")


@dataclass(frozen=True)
class LossConfig:
    margin: float = rule(0.2, finite=True, min=0)
    rank_temp: float = rule(0.1, finite=True, gt=0)
    dist_temp: float = rule(1.0, finite=True, gt=0)
    divergence: str = rule("skl", choices=DIVERGENCES)
    rkd_norm: str = rule("cubic", choices=RKD_NORMS)
    lambda_variant: str = rule("literal", choices=LAMBDA_VARIANTS)
    pr: bool = rule(True)
    rkd: bool = rule(True)
    dkd: bool = rule(True)

    _relations = ((None, lambda v: v["pr"] or v["rkd"] or v["dkd"], "all loss terms toggled off"),)

    def __post_init__(self):
        check(self, "loss")


@dataclass(frozen=True)
class PlanConfig:
    epochs: int = rule(60, min=1)
    batch_start: int = rule(16, min=2)
    batch_cap: int = rule(256)
    expansion_rate: float = rule(1.4, finite=True, gt=1)
    active_threshold: float = rule(0.7, finite=True, min=0, max=1)
    lr: float = rule(1e-4, finite=True, gt=0)
    lr_drop_epoch: int = rule(30, min=0)
    lr_drop_factor: float = rule(0.1, finite=True, gt=0)
    weight_decay: float = rule(1e-3, finite=True, min=0)

    _relations = (("batch_start", lambda v: v["batch_start"] <= v["batch_cap"],
                   "start {batch_start} exceeds cap {batch_cap}"),)

    def __post_init__(self):
        check(self, "plan")


@dataclass(frozen=True)
class BufferConfig:
    capacity: int = rule(256, min=1)
    fraction: float = rule(0.25, finite=True, gt=0, lt=1)
    enabled: bool = rule(True)

    def __post_init__(self):
        check(self, "buffer")


@dataclass(frozen=True)
class DomainConfig:
    name: str
    seed: int = rule(kind="seed")
    train_places: int = rule(400, min=2)
    test_places: int = rule(200, min=2)
    trajectory_length: float = rule(900.0, finite=True, gt=0)
    style: str | StyleParams = "plains"

    def __post_init__(self):
        check(self, f"domains[{self.name}]")
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
    fusion: bool = rule(True)
    forgetting_max: str = rule("printed", choices=FORGETTING_MODES)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pairs: PairPolicy = field(default_factory=PairPolicy)
    loss: LossConfig = field(default_factory=LossConfig)
    plan: PlanConfig = field(default_factory=PlanConfig)
    buffer: BufferConfig = field(default_factory=BufferConfig)
    domains: tuple = ()

    def __post_init__(self):
        check(self, "")


def _build(cls, raw: dict, path: str):
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: expected a mapping, got {type(raw).__name__}")
    # Checked under the config path: a data class built directly names itself.
    check(cls, path, {**{f.name: f.default for f in fields(cls) if f.default is not MISSING}, **raw})
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed mapping into an ExperimentConfig.

    Raises ConfigurationError naming the offending field path.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config root: expected a mapping, got {type(raw).__name__}")
    raw = dict(raw)
    schema = raw.pop("schema", None)
    require(schema == SCHEMA_ID, "schema", f"expected {SCHEMA_ID!r}, got {schema!r}")
    check(ExperimentConfig, "", raw)

    enc = _build(EncoderConfig, raw.get("encoder", {}), "encoder")
    pairs = _build(PairPolicy, raw.get("pairs", {}), "pairs")
    loss = _build(LossConfig, raw.get("loss", {}), "loss")
    plan = _build(PlanConfig, raw.get("plan", {}), "plan")
    buf = _build(BufferConfig, raw.get("buffer", {}), "buffer")

    seeds = raw.get("seeds", ExperimentConfig.seeds)
    require(
        isinstance(seeds, (list, tuple)) and len(seeds) > 0,
        "seeds",
        "must be a non-empty list of integers",
    )
    for i, s in enumerate(seeds):
        require_kind(s, "seed", f"seeds[{i}]")
        require(s not in seeds[:i], f"seeds[{i}]", f"duplicate seed {s}")

    domains_raw = raw.get("domains", [])
    require(isinstance(domains_raw, list), "domains", "must be a list")
    domains = []
    names = set()
    for i, d in enumerate(domains_raw):
        # A domain is named by its name, as DomainConfig names it, or else by
        # its index.
        name = d.get("name") if isinstance(d, dict) else None
        where = f"domains[{name if isinstance(name, str) else i}]"
        if isinstance(d, dict) and isinstance(d.get("style"), dict):
            d = dict(d)
            d["style"] = _build(StyleParams, d["style"], f"{where}.style")
        dom = _build(DomainConfig, d, where)
        require(dom.name not in names, f"{where}.name", f"duplicate name {dom.name!r}")
        names.add(dom.name)
        domains.append(dom)

    return ExperimentConfig(
        schema=SCHEMA_ID,
        seeds=tuple(seeds),
        out_dir=str(raw.get("out_dir", ExperimentConfig.out_dir)),
        fusion=raw.get("fusion", ExperimentConfig.fusion),
        forgetting_max=raw.get("forgetting_max", ExperimentConfig.forgetting_max),
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
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or bytes that are not text
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
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
