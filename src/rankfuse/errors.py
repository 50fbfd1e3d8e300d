"""Exception hierarchy shared across the toolkit, and the one artifact
writer, whose failure is an error naming the file."""

import os


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


def write_atomic(path, data) -> None:
    """Write ``data`` (bytes, or text as UTF-8) whole to ``path``.

    The bytes go to a temporary file in the same directory, which then
    ``os.replace``s ``path``, so a reader sees the old file or the whole new
    one, never a part. A failed write or replace leaves the old file as it
    was, removes the temporary one and is a usage error naming ``path``.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
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
