"""Exception hierarchy shared across the toolkit, the one checker of the
rules that config and data classes declare beside their fields, and the one
artifact writer, whose failure is an error naming the file."""

import math
import operator
import os
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


def write_atomic(path, data, digests: dict | None = None) -> None:
    """Write ``data`` (bytes, or text as UTF-8) whole to ``path``.

    The bytes go to a temporary file in the same directory, which then
    ``os.replace``s ``path``, so a reader sees the old file or the whole new
    one, never a part. A failed write or replace leaves the old file as it
    was, removes the temporary one and is a usage error naming ``path``.
    Given ``digests``, it also maps ``path`` to the sha256 of the bytes.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if digests is not None:
        import hashlib  # here, so that eval (which records no digest) never maps OpenSSL

        digests[path] = hashlib.sha256(data).hexdigest()
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.unlink(tmp)
        raise UsageError(f"cannot write output file {path}: {exc.strerror}") from None


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


def check(obj, path: str, values=None, relations: bool = True):
    """Check a dataclass's ``values`` (by default the instance's own): refuse
    a name that is not a field, then check each field's rule, in field order:
    kind, then finiteness, then bounds and choices. Then, unless
    ``relations`` is false, check the class's cross-field ``_relations``,
    each a (field or None, test of the values, message formatted with the
    values). Messages read ``<path>.<field>: must be ...``; an empty path is
    the root. A public function checks an argument that a config field also
    holds as ``check(Section, "section", {"field": value}, relations=False)``,
    so that it refuses what the config refuses, with the config's message.
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
    for name, holds, msg in getattr(obj, "_relations", ()) if relations else ():
        require(holds(values), ".".join(filter(None, (path, name))), msg.format_map(values))
