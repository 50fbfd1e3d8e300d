"""The on-disk corpus format, read and written.

A corpus directory holds ``poses.csv``, one ``sample_id,x,y,scan_file`` line
per sample, and one little-endian float32 ``.f32`` file of P x 3 values per
scan. ``save_corpus`` writes one; ``load_corpus`` parses poses.csv whole and
leaves the scans in their files until a ``ScanReader`` slice reads them.
This module imports no generator, so ``rankfuse eval`` compiles only the
reader; ``data`` generates the samples that ``gen-data`` saves here.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestionError, UsageError

POSES_FILE = "poses.csv"
_CSV_HEADER = ["sample_id", "x", "y", "scan_file"]


def scan_file(sample_id: int) -> str:
    """The name ``save_corpus`` gives a sample's scan file."""
    return f"scan_{sample_id:06d}.f32"


def save_corpus(samples: list, path: str | Path) -> Path:
    """Write a corpus directory (poses.csv plus per-scan .f32 files) from
    ``data.PlaceSample``s, whose float32 scans are written as they are held."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / POSES_FILE, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for s in samples:
            name = scan_file(s.sample_id)
            (out / name).write_bytes(s.scan.points.tobytes())
            writer.writerow([s.sample_id, repr(float(s.pose[0])), repr(float(s.pose[1])), name])
    return out


@dataclass(frozen=True)
class Corpus:
    """A corpus directory: the poses.csv columns, and a reader of its scans."""

    poses: np.ndarray  # (N, 2) meters
    sample_ids: np.ndarray  # (N,)
    scans: ScanReader

    def __len__(self) -> int:
        return len(self.sample_ids)


class ScanReader:
    """The scans of a corpus, read from their files a slice at a time.

    ``reader[lo:hi]`` reads those rows' scan files into one float32 buffer,
    checks it, and returns the rows as a (hi - lo, P, 3) float64 array, each
    scan with a value beyond [-1, 1] divided by its peak ``max |x|`` (never a
    generated scan: generation clips to [-1, 1]). The first scan's point count
    fixes P. A missing, short or non-regular scan file, or a non-finite value,
    is an ingestion error naming poses.csv, the line and the scan file; the
    slice's first bad row is the one reported. Nothing is kept between slices
    but the point count.
    """

    def __init__(self, poses_path: Path, linenos: list, names: list):
        self._poses_path = poses_path
        self._root = poses_path.parent
        self._linenos = linenos  # poses.csv line of each row
        self._names = names  # scan file of each row
        self._floats = None  # floats per scan, fixed by the first scan

    def __len__(self) -> int:
        return len(self._names)

    def _where(self, row: int) -> str:
        return f"{self._poses_path} line {self._linenos[row]}"

    def __getitem__(self, index: slice) -> np.ndarray:
        lo, hi, step = index.indices(len(self))
        if step != 1:
            raise UsageError(f"scan reader slices take step 1, got {step}")
        if lo == hi:
            return np.empty((0, (self._floats or 0) // 3, 3))
        if self._floats is None and lo > 0:
            self[:1]  # the first scan fixes the point count, and its faults come first
        buf, read, fault = self._read(lo, hi)
        if fault is not None and not read:
            raise fault
        scans = buf[:read]
        peaks = np.abs(scans).max(axis=1)  # NaN propagates
        finite = np.isfinite(peaks)
        if not finite.all():
            row = lo + int(np.argmin(finite))
            raise IngestionError(
                f"{self._where(row)}: scan file {self._names[row]} has non-finite values"
            )
        if fault is not None:
            raise fault
        pts = scans.astype(np.float64)
        big = peaks > 1.0
        if big.any():
            pts[big] /= peaks[big, None]
        return pts.reshape(read, pts.shape[1] // 3, 3)

    def _read(self, lo: int, hi: int):
        """Read the scan file of rows lo..hi-1 into a (hi - lo, 3P) float32
        buffer. Returns the buffer, how many scans were read, and the fault
        that stopped the reading, if one did."""
        floats = self._floats or 0
        buf = np.empty((hi - lo, floats), dtype="<f4")
        try:  # names open relative to the directory: one path walk per slice
            root = os.open(self._root, os.O_RDONLY | os.O_DIRECTORY)
        except OSError:
            return buf, 0, IngestionError(f"{self._where(lo)}: missing scan file {self._names[lo]}")
        try:
            for i, name in enumerate(self._names[lo:hi]):
                try:  # non-blocking, so a FIFO cannot hang the open
                    fd = os.open(name, os.O_RDONLY | os.O_NONBLOCK, dir_fd=root)
                    try:
                        st = os.fstat(fd)
                        if not stat.S_ISREG(st.st_mode):
                            raise IsADirectoryError  # a FIFO or a device is no scan file
                        size = st.st_size
                        if not floats and size and not size % 12:
                            self._floats = floats = size // 4
                            buf = np.empty((hi - lo, floats), dtype="<f4")
                        if floats and size == 4 * floats:
                            size = os.readv(fd, [buf[i]])  # less only if the file shrank meanwhile
                    finally:
                        os.close(fd)
                except (OSError, ValueError):  # no such file, a directory, a name too long, ...
                    fault = f"missing scan file {name}"
                else:
                    if not size or size % 12:
                        fault = f"scan file {name} has {size / 4:.12g} floats, not a multiple of 3"
                    elif size != 4 * floats:
                        fault = (f"scan file {name} has {size // 12} points, "
                                 f"expected {floats // 3}")
                    else:
                        continue
                return buf, i, IngestionError(f"{self._where(lo + i)}: {fault}")
        finally:
            os.close(root)
        return buf, hi - lo, None


def load_corpus(path: str | Path) -> Corpus:
    """Parse a corpus directory's poses.csv; its scans stay in their files.

    Returns the poses and sample ids as arrays, and a ``ScanReader`` that
    reads, checks and renormalizes the scans of each slice asked of it, so no
    split of scans is ever resident. A bad poses.csv line (not UTF-8 or CSV,
    the wrong field count, a non-finite pose or a duplicate sample id) or an
    empty corpus is an ingestion error naming poses.csv and the line. When a
    line is bad, the scans of the lines before it are read and checked first,
    so the first bad line in file order is the one reported.
    """
    root = Path(path)
    poses_path = root / POSES_FILE
    if not poses_path.is_file():
        raise IngestionError(f"missing {POSES_FILE} in {root}")

    linenos, names, ids, poses = [], [], [], []  # up to the first bad line
    seen_ids: set[int] = set()
    fault = None  # the first bad line's fault waits until the scans before it are checked
    try:
        raw = poses_path.read_bytes()
    except OSError as exc:
        raise IngestionError(f"cannot read {poses_path}: {exc.strerror}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # the lines before the undecodable one still count
        head = raw[: raw.rfind(b"\n", 0, exc.start) + 1]
        text = head.decode("utf-8")
        lineno = head.count(b"\n") + 1
        fault = IngestionError(f"{poses_path} line {lineno}: not UTF-8 text ({exc.reason})")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise fault or IngestionError(f"{poses_path}: empty file")
        if [h.strip() for h in header] != _CSV_HEADER:
            raise IngestionError(f"{poses_path} line 1: expected header {','.join(_CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            where = f"{poses_path} line {lineno}"
            if len(row) != 4:
                raise IngestionError(f"{where}: expected 4 fields, got {len(row)}")
            try:
                sample_id = int(row[0])
                x = float(row[1])
                y = float(row[2])
            except ValueError as exc:
                raise IngestionError(f"{where}: {exc}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise IngestionError(f"{where}: non-finite pose ({row[1]}, {row[2]})")
            if sample_id in seen_ids:
                raise IngestionError(f"{where}: duplicate sample_id {sample_id}")
            seen_ids.add(sample_id)
            linenos.append(lineno)
            names.append(row[3].strip())
            ids.append(sample_id)
            poses.append((x, y))
    except IngestionError as exc:
        fault = exc
    except csv.Error as exc:
        fault = IngestionError(f"{poses_path} line {reader.line_num}: {exc}")
    scans = ScanReader(poses_path, linenos, names)
    if fault is not None:
        if names:
            scans[:]  # the lines before the bad one are checked first
        raise fault
    if not names:
        raise IngestionError(f"{poses_path}: no samples after the header")
    return Corpus(poses=np.array(poses), sample_ids=np.array(ids), scans=scans)
