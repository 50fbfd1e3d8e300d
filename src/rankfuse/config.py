"""Experiment configuration: the whole schema (field rules and their one
checker, the sections, the generator's pair policy, styles and domain spec),
YAML, and stable digests. It imports no other rankfuse module but errors.

A config file fully determines an experiment together with a seed. The
sha256 digest of the canonically serialized config is recorded in every
snapshot so evaluation can refuse mismatched artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import yaml

from .errors import ConfigurationError


def require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigurationError(f"{path}: {msg}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_dirname(v) -> bool:
    return isinstance(v, str) and v not in ("", ".", "..") and "/" not in v and "\0" not in v


# YAML 1.1 reads 1e9 as a string; bool is an int subclass, but `true` is not a
# count; numpy's generators refuse negative seeds; a domain's name is one
# directory under gen-data's corpora/; an output path is text, not null.
KINDS = {
    "int": ("an integer", _is_int),
    "seed": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "float": ("a number", _is_number),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "dirname": ("a directory name: a non-empty string, not '.' or '..', with no '/' or NUL",
                _is_dirname),
    "path": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "style": ("a preset name or a style table", lambda v: isinstance(v, (str, StyleParams))),
    "tuple": ("a list of numbers",
              lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}
_BOUNDS = (("min", ">=", operator.ge), ("gt", ">", operator.gt),
           ("max", "<=", operator.le), ("lt", "<", operator.lt))


def rule(default=MISSING, **rule):
    """A dataclass field that declares its checks beside itself.

    ``rule`` may name a ``kind`` of ``KINDS`` (by default the annotation's),
    ``finite=True``, the bounds ``min``, ``gt``, ``max`` and ``lt``, and
    ``choices``, all kept under the field's ``metadata["rule"]``. ``each``
    names what each item of a list is: a kind (a non-empty list of distinct
    values, each named ``<field>[<index>]``) or a config class (a list of
    sections with distinct names). ``section`` names the config class that a
    mapping in the field is built as. A field without a rule is not checked.
    """
    return field(default=default, metadata={"rule": rule})


def require_kind(value, kind: str, path: str):
    name, test = KINDS[kind]
    require(test(value), path, f"must be {name}, got {value!r}")


def check(obj, path: str, values=None, relations: bool = True):
    """Check a dataclass's ``values`` (by default the instance's own): refuse
    a name that is not a field, then check each field's rule, in field order:
    kind, then finiteness, then bounds and choices, then a list's items.
    Then, unless ``relations`` is false, check the class's cross-field
    ``_relations``, each a (field or None, test of the values, message
    formatted with the values). Messages read ``<path>.<field>: must be
    ...``; an empty path is the root. A public function checks an argument
    that a config field also holds as ``check(Section, "section", {"field":
    value}, relations=False)``, so that it refuses what the config refuses,
    with the config's message.
    """
    values = vars(obj) if values is None else values
    known = {f.name for f in fields(obj)}
    for key in values:
        require(key in known, ".".join(filter(None, (path, str(key)))), "unknown field")
    for f in fields(obj):
        r = f.metadata.get("rule")
        if r is None or f.name not in values:
            continue
        value, where = values[f.name], ".".join(filter(None, (path, f.name)))
        kind = r.get("kind", f.type)
        if kind in KINDS:
            require_kind(value, kind, where)
        if r.get("finite"):
            require(math.isfinite(value), where, f"must be finite, got {value!r}")
        for key, sign, holds in _BOUNDS:
            if key in r:
                require(holds(value, r[key]), where, f"must be {sign} {r[key]}, got {value!r}")
        if "choices" in r:
            require(value in r["choices"], where, f"must be one of {r['choices']}, got {value!r}")
        each = r.get("each")
        if isinstance(each, str):
            require(isinstance(value, (list, tuple)) and len(value) > 0, where,
                    f"must be a non-empty list, got {value!r}")
            for i, item in enumerate(value):
                require_kind(item, each, f"{where}[{i}]")
                require(item not in value[:i], f"{where}[{i}]", f"duplicate {each} {item!r}")
        elif each is not None:
            require(isinstance(value, (list, tuple)) and all(isinstance(v, each) for v in value),
                    where, f"must be a list of {each.__name__}, got {value!r}")
            for i, item in enumerate(value):
                require(item.name not in [v.name for v in value[:i]], f"{where}[{item.name}].name",
                        f"duplicate name {item.name!r}")
    for name, holds, msg in getattr(obj, "_relations", ()) if relations else ():
        require(holds(values), ".".join(filter(None, (path, name))), msg.format_map(values))


SCHEMA_ID = "rankfuse/v1"

# The one definition of each loss choice: LossConfig checks its fields and
# the `run` overrides against these.
DIVERGENCES = ("skl", "kl", "js")
LAMBDA_VARIANTS = ("literal", "incloud")
RKD_NORMS = ("cubic", "quadratic")
# How forgetting_score takes an earlier task's best recall.
FORGETTING_MODES = ("printed", "from_t")

_TOGGLE_NAMES = ("pr", "rkd", "dkd", "buffer", "fusion")


# Each field declares its rule beside itself, and each class checks itself
# on construction, so a config built by from_dict, by apply_overrides (via
# replace) or directly is checked alike.


@dataclass(frozen=True)
class PairPolicy:
    """Distance thresholds (meters) defining positive/negative pairs.

    Training uses the dual-threshold scheme: pairs closer than ``pos_train``
    are positives, farther than ``neg_train`` are negatives, and the band in
    between is unlabeled and excluded from mining. Testing uses the single
    ``pos_test`` radius for ground truth.
    """

    pos_train: float = rule(10.0, finite=True, gt=0)
    neg_train: float = rule(50.0, finite=True)
    pos_test: float = rule(25.0, finite=True, gt=0)

    _relations = (("neg_train", lambda v: v["neg_train"] > v["pos_train"],
                   "must exceed pos_train ({pos_train}), got {neg_train}"),)

    def __post_init__(self):
        check(self, "PairPolicy")


@dataclass(frozen=True)
class StyleParams:
    """Structural style plus sensor rig of a domain.

    Scans are normalized by the fixed FRAME_XY/FRAME_Z extents, so structure
    scale, reach, and mounting differences show up directly in the inputs;
    varying these fields is what produces domain shift.
    """

    plane_weight: float = rule(0.5, finite=True, min=0)
    box_weight: float = rule(0.3, finite=True, min=0)
    clutter_weight: float = rule(0.2, finite=True, min=0)
    landmark_density: float = rule(0.6, finite=True, gt=0)  # landmarks per trajectory meter
    visibility_radius: float = rule(40.0, finite=True, gt=0)  # meters
    noise: float = rule(0.02, finite=True, min=0)  # per-point jitter std, meters
    yaw_jitter: float = rule(0.35, finite=True)  # per-scan heading jitter, radians
    height_scale: float = rule(1.0, finite=True, gt=0)  # multiplies landmark heights
    sensor_yaw: float = rule(0.0, finite=True)  # fixed mount rotation about z, radians
    sensor_tilt: float = rule(0.0, finite=True)  # fixed mount rotation about x, radians
    sensor_z: float = rule(0.0, finite=True)  # fixed mount height offset, meters
    axis_scale: tuple = rule((1.0, 1.0, 1.0))  # per-axis calibration scale

    _relations = (
        (None, lambda v: v["plane_weight"] + v["box_weight"] + v["clutter_weight"] > 0,
         "mixture weights must not all be zero"),
        ("axis_scale", lambda v: len(v["axis_scale"]) == 3
         and all(math.isfinite(x) and x > 0 for x in v["axis_scale"]),
         "must be 3 finite numbers > 0, got {axis_scale}"),
    )

    def __post_init__(self):
        check(self, "StyleParams")
        object.__setattr__(self, "axis_scale", tuple(float(v) for v in self.axis_scale))


# Contrasting structures and sensor rigs; sequential training across these
# shifts the input statistics enough that plain fine-tuning forgets.
STYLE_PRESETS = {
    "plains": StyleParams(
        plane_weight=0.7,
        box_weight=0.1,
        clutter_weight=0.2,
        landmark_density=0.45,
        visibility_radius=55.0,
        noise=0.02,
        yaw_jitter=0.1,
        height_scale=0.6,
        sensor_yaw=0.0,
        sensor_z=0.0,
    ),
    "depot": StyleParams(
        plane_weight=0.15,
        box_weight=0.75,
        clutter_weight=0.1,
        landmark_density=0.5,
        visibility_radius=40.0,
        noise=0.015,
        yaw_jitter=0.1,
        height_scale=1.3,
        sensor_yaw=1.8,
        sensor_tilt=0.3,
        sensor_z=2.0,
        axis_scale=(1.35, 0.75, 1.2),
    ),
    "grove": StyleParams(
        plane_weight=0.1,
        box_weight=0.15,
        clutter_weight=0.75,
        landmark_density=0.5,
        visibility_radius=42.0,
        noise=0.04,
        yaw_jitter=0.12,
        height_scale=0.9,
        sensor_yaw=-2.2,
        sensor_tilt=-0.25,
        sensor_z=0.5,
        axis_scale=(0.7, 1.3, 0.85),
    ),
    "arcade": StyleParams(
        plane_weight=0.35,
        box_weight=0.55,
        clutter_weight=0.1,
        landmark_density=0.5,
        visibility_radius=38.0,
        noise=0.01,
        yaw_jitter=0.08,
        height_scale=1.6,
        sensor_yaw=2.8,
        sensor_tilt=0.4,
        sensor_z=1.5,
        axis_scale=(1.25, 1.2, 0.65),
    ),
}


@dataclass(frozen=True)
class DomainSpec:
    """Everything needed to rebuild one domain deterministically.

    ``session`` selects a traversal of the same world: session 0 poses sit on
    the trajectory anchors, later sessions revisit them with small pose
    offsets, fresh per-scan yaw, and fresh jitter (database vs. query dates).
    """

    seed: int = rule(kind="seed")
    n_places: int = rule(min=2)
    trajectory_length: float = rule(1000.0, finite=True, gt=0)
    style: StyleParams = field(default_factory=StyleParams)
    session: int = rule(0, min=0)

    def __post_init__(self):
        check(self, "DomainSpec")


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
    name: str = rule(kind="dirname")
    seed: int = rule(kind="seed")
    train_places: int = rule(400, min=2)
    test_places: int = rule(200, min=2)
    trajectory_length: float = rule(900.0, finite=True, gt=0)
    style: str | StyleParams = rule("plains", kind="style", section=StyleParams)

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
    seeds: tuple[int, ...] = rule((0,), each="seed")
    out_dir: str = rule("runs/out", kind="path")
    fusion: bool = rule(True)
    forgetting_max: str = rule("printed", choices=FORGETTING_MODES)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    pairs: PairPolicy = field(default_factory=PairPolicy)
    loss: LossConfig = field(default_factory=LossConfig)
    plan: PlanConfig = field(default_factory=PlanConfig)
    buffer: BufferConfig = field(default_factory=BufferConfig)
    domains: tuple[DomainConfig, ...] = rule((), each=DomainConfig)

    def __post_init__(self):
        check(self, "")


def _build(cls, raw: dict, path: str):
    """Build ``cls`` from the mapping ``raw`` at config path ``path``: first
    the sections among its fields (a field whose default is a config class,
    a mapping under a rule's ``section``, and each item of a list of
    sections, named by its name or else its index), then check the class's
    own values under ``path``, then construct it with its lists as tuples.
    """
    require(isinstance(raw, dict), path, f"expected a mapping, got {type(raw).__name__}")
    values = dict(raw)
    for f in fields(cls):
        r, value = f.metadata.get("rule", {}), values.get(f.name)
        where = ".".join(filter(None, (path, f.name)))
        if isinstance(r.get("each"), type) and isinstance(value, list):
            items = []
            for i, item in enumerate(value):
                name = item.get("name") if isinstance(item, dict) else None
                items.append(_build(r["each"], item, f"{where}[{name if _is_dirname(name) else i}]"))
            values[f.name] = items
        elif f.name in values and (f.default_factory is not MISSING
                                   or ("section" in r and isinstance(value, dict))):
            values[f.name] = _build(r.get("section", f.default_factory), value, where)
    # Checked under the config path: a data class built directly names itself.
    check(cls, path, {**{f.name: f.default for f in fields(cls) if f.default is not MISSING},
                      **values})
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed mapping into an ExperimentConfig.

    Raises ConfigurationError naming the offending field path. Construction
    checks every field; a file must also carry the schema marker and name at
    least one domain.
    """
    require(isinstance(raw, dict), "config root", f"expected a mapping, got {type(raw).__name__}")
    schema = raw.get("schema")
    require(schema == SCHEMA_ID, "schema", f"expected {SCHEMA_ID!r}, got {schema!r}")
    cfg = _build(ExperimentConfig, raw, "")
    require(len(cfg.domains) > 0, "domains", "protocol needs at least one domain")
    return cfg


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
    """Parse `name=on|off` strings into {name: bool}."""
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigurationError(f"--toggle: expected name=on|off, got {item!r}")
        name, _, value = item.partition("=")
        if value not in ("on", "off"):
            raise ConfigurationError(f"--toggle {name}: expected on|off, got {value!r}")
        out[name.strip()] = value == "on"
    return out
