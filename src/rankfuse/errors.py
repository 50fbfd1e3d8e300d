"""Exception hierarchy shared across the toolkit, and the one checker of the
rules that config and data classes declare beside their fields."""

import math
import operator
from dataclasses import MISSING, field, fields


class RankfuseError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(RankfuseError):
    """Invalid configuration value; message names the offending field."""


class UsageError(RankfuseError):
    """API called with inconsistent arguments (shape or arity mismatch)."""


class IngestionError(RankfuseError):
    """On-disk corpus is missing or malformed; message names file and line."""


class TrainingError(RankfuseError):
    """Training step aborted (non-finite loss or gradient)."""


def require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigurationError(f"{path}: {msg}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# YAML 1.1 reads 1e9 as a string; bool is an int subclass, but `true` is not a
# count; numpy's generators refuse negative seeds.
KINDS = {
    "int": ("an integer", _is_int),
    "seed": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "float": ("a number", _is_number),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "tuple": ("a list of numbers",
              lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}
_BOUNDS = (("min", ">=", operator.ge), ("gt", ">", operator.gt),
           ("max", "<=", operator.le), ("lt", "<", operator.lt))


def rule(default=MISSING, **rule):
    """A dataclass field that declares its checks beside itself.

    ``rule`` may name a ``kind`` of ``KINDS`` (by default the annotation's),
    ``finite=True``, the bounds ``min``, ``gt``, ``max`` and ``lt``, and
    ``choices``, all kept under the field's ``metadata["rule"]``. A field
    without a rule is not checked.
    """
    return field(default=default, metadata={"rule": rule})


def require_kind(value, kind: str, path: str):
    name, test = KINDS[kind]
    require(test(value), path, f"must be {name}, got {value!r}")


def check(obj, path: str, values=None):
    """Check a dataclass's ``values`` (by default the instance's own): refuse
    a name that is not a field, then check each field's rule, in field order:
    kind, then finiteness, then bounds and choices. Then check the class's
    cross-field ``_relations``, each a (field or None, test of the values,
    message formatted with the values). Messages read
    ``<path>.<field>: must be ...``; an empty path is the root.
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
    for name, holds, msg in getattr(obj, "_relations", ()):
        require(holds(values), ".".join(filter(None, (path, name))), msg.format_map(values))
