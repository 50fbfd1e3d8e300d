#!/usr/bin/env python3
"""rankfuse benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --quick      # every workload once, reduced size

Each workload drives the program only through its command line, one fresh
interpreter per call (benchmarks/child.py), one measured process at a time,
with BLAS pinned to one thread. A run repeats the workload's operation, a
few seconds of work each, until --seconds have passed. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Everything else the run writes goes under .bench_out/ at the
repository root; benchmarks/README.md describes the workloads, the metrics
and the span format.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"
PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
SETUP_REPS = 3
PACE_S = 1.0  # reference-kernel time before each measured operation and after the last
DEADLINE_S = 175.0  # every child is killed by then; the run must end within 180 s

WORKLOADS = {
    "reference_seed0": {"config": "reference_short.yaml", "kind": "run"},
    "wide_batch_distill": {"config": "wide_batch_distill.yaml", "kind": "run"},
    "retrieval_eval": {"config": "retrieval_eval.yaml", "kind": "eval"},
}
# The run workloads train protocol seed 0 at every workload seed (see README),
# so their pins hold at every seed. retrieval_eval draws its snapshot pair
# from the workload seed, so its eval and snapshot pins hold at seed 0 only.
SEEDED_PINS = {"retrieval_eval": ("eval", "snapshots")}
PROTOCOL_SEED = 0
DEFAULT_SEED = 0

CHILD_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONHASHSEED="0",  # same allocation pattern, so the same peak memory, every run
    # numpy's madvise(MADV_HUGEPAGE) makes a large allocation wait for memory
    # compaction when the host's memory is fragmented: seconds of noise, and
    # a peak RSS that jumps by the pages it happened to get.
    NUMPY_MADVISE_HUGEPAGE="0",
    PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ),
)


def tree_digest(path: Path) -> str:
    """sha256 over every file below ``path``: relative name, then bytes."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Pace:
    """The reference kernel's process (child.py pace), alive for one run.

    It waits on its stdin between requests, so it never runs beside a
    measured call. Its mean kernel time over the run is the unit in which
    ``op_wall_rel`` expresses the operations' wall time (see README).
    """

    def __init__(self, run: "Run"):
        self.run, self.calls, self.seconds = run, 0, 0.0
        self.means = []  # mean kernel time of each request, in order
        cmd = [sys.executable, str(CHILD), "--report", str(run.wd / "reports" / "pace.json"), "pace"]
        with open(run.wd / "logs" / "pace.log", "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=log, text=True)

    def time(self) -> None:
        """Time the kernel for PACE_S; a pace that fails fails the run."""
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.run.start))
        deadline = threading.Timer(timeout, self.proc.kill)
        deadline.start()
        try:
            self.proc.stdin.write(f"{PACE_S}\n")
            self.proc.stdin.flush()
            answer = json.loads(self.proc.stdout.readline())
            self.calls += answer["calls"]
            self.seconds += answer["calls"] * answer["mean_s"]
            self.means.append(answer["mean_s"])
        except (OSError, ValueError, KeyError) as exc:
            self.run.ops.append({"op": "pace", "ok": False, "why": exc.__class__.__name__})
        finally:
            deadline.cancel()

    def mean_s(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


class Run:
    """One benchmark run of one workload: its processes, checks and records."""

    def __init__(self, workload: str, seed: int, trace: bool, quick: bool):
        self.workload, self.seed, self.trace, self.quick = workload, seed, trace, quick
        spec = WORKLOADS[workload]
        self.kind = spec["kind"]
        self.config = HERE / "configs" / ("quick" if quick else "") / spec["config"]
        self.wd = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.data = self.wd / "data"
        self.start = time.perf_counter()
        self.ops = []  # one entry per attempted operation
        self.traced = []  # span exports of traced processes
        self.digests = {}
        self.absent = set()
        self.env = None
        self.domains = []
        self.measured = []
        self.setup_walls = []
        self.pace = None
        self.commit = None

    # -- processes -------------------------------------------------------

    def child(self, label: str, args: list, trace: bool = False) -> dict:
        """Start one measured process and wait for it; record the operation."""
        for sub in ("reports", "logs"):
            (self.wd / sub).mkdir(parents=True, exist_ok=True)
        report_path = self.wd / "reports" / f"{label}.json"
        cmd = [sys.executable, str(CHILD), "--report", str(report_path)]
        cmd += (["--trace"] if trace else []) + args
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.start))
        os.sync()  # write back earlier calls' files now, not during this measurement
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        with open(self.wd / "logs" / f"{label}.log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=log,
                                    stderr=subprocess.STDOUT)
            # A blocking wait sees the exit at once; wait(timeout=) polls every 50 ms.
            deadline = threading.Timer(timeout, proc.kill)
            deadline.start()
            try:
                rc = proc.wait()
            finally:  # also on SIGTERM or Ctrl-C: never leave the child running
                deadline.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        wall = time.perf_counter() - t0
        if rc == -signal.SIGKILL:
            rc = "killed at the deadline"
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        report = json.loads(report_path.read_text()) if report_path.exists() else {}
        op = {"op": label, "ok": rc == 0 and bool(report), "why": "" if rc == 0 else f"exit {rc}"}
        self.ops.append(op)
        if "trace" in report:
            self.traced.append(dict(report["trace"], run=label))
            self.absent.update(report["trace"]["absent"])
        return {"wall": wall, "cpu": cpu, "report": report, "op": op}

    def cli(self, label: str, argv: list, trace: bool = False) -> dict:
        return self.child(label, ["cli", "--", *argv], trace)

    def expect(self, call: dict, path: Path) -> bool:
        """A call whose output file is missing counts as failed."""
        if call["op"]["ok"] and not path.exists():
            call["op"].update(ok=False, why=f"missing {path.relative_to(self.wd)}")
        return call["op"]["ok"]

    def pin(self, call: dict, key: str, digest: str, sub: str = "") -> None:
        """Record a digest; fail the call if it differs from the pinned value."""
        self.digests[f"{key}/{sub}" if sub else key] = digest
        if self.quick:
            return
        if self.seed != DEFAULT_SEED and key in SEEDED_PINS.get(self.workload, ()):
            return
        pinned = PINS.get(self.workload, {}).get(key)
        if sub and isinstance(pinned, dict):
            pinned = pinned.get(sub)
        if pinned is not None and digest != pinned:
            call["op"].update(ok=False, why=f"{key} digest {digest[:12]} != pinned {pinned[:12]}")

    # -- set-up and operations -------------------------------------------

    def setup(self) -> None:
        """rankfuse gen-data for the workload config: SETUP_REPS times, or once traced."""
        corpora = self.data / "corpora"
        for rep in range(1 if self.trace else SETUP_REPS):
            shutil.rmtree(self.data, ignore_errors=True)
            call = self.cli(f"setup{rep}-gen-data",
                            ["gen-data", "--config", str(self.config), "--out", str(self.data)],
                            trace=self.trace)
            self.setup_walls.append(call["wall"])
        # Every rep runs the same deterministic command; the last one's output is checked.
        if self.expect(call, corpora):
            self.pin(call, "corpus", tree_digest(corpora))
        self.domains = sorted(p.name for p in corpora.iterdir()) if corpora.exists() else []
        if self.kind == "eval":
            call = self.child("setup-snapshots", ["snapshots", "--config", str(self.config),
                                                  "--seed", str(self.seed),
                                                  "--out", str(self.data)])
            snaps = [self.data / "step_0.snap", self.data / "step_1.snap"]
            if all(self.expect(call, s) for s in snaps):
                self.pin(call, "snapshots", json_digest([file_digest(s) for s in snaps]))

    def eval_call(self, label: str, domain: str, fused: bool, trace: bool):
        """rankfuse eval of the new snapshot (Recall@1) or the fused pair (Recall@5)."""
        corpus = self.data / "corpora" / domain
        out = self.wd / label
        snaps = ["step_0.snap", "step_1.snap"] if fused else ["step_1.snap"]
        argv = ["eval", "--corpus", str(corpus / "db"), "--queries", str(corpus / "query"),
                "--at", "5" if fused else "1", "--out", str(out)]
        if fused:
            argv += ["--fusion", "on"]
        for s in snaps:
            argv += ["--snapshot", str(self.data / s)]
        call = self.cli(label, argv, trace)
        report = None
        if self.expect(call, out / "eval.json"):
            report = json.loads((out / "eval.json").read_text())
            report.pop("snapshots")  # absolute paths differ between checkouts
            self.pin(call, "eval", json_digest(report), f"{domain}-{'fused' if fused else 'single'}")
        shutil.rmtree(out, ignore_errors=True)
        return call, report

    def operation(self, index: int, trace: bool) -> dict:
        """One measured operation: a `rankfuse run`, or a single and a fused
        `rankfuse eval` on one domain (domains taken in turn by ``index``)."""
        tag = f"op{len(self.measured)}{'-traced' if trace else ''}"
        if self.kind == "run":
            out = self.wd / tag
            call = self.cli(f"{tag}-run", ["run", "--config", str(self.config), "--seed",
                                           str(PROTOCOL_SEED), "--out", str(out)], trace)
            res = {"label": call["op"]["op"], "wall": call["wall"], "cpu": call["cpu"],
                   "peak_rss_mb": call["report"].get("peak_rss_mb", 0.0)}
            results = out / f"seed_{PROTOCOL_SEED}" / "results.json"
            if self.expect(call, results):
                self.pin(call, "results", file_digest(results))
                doc = json.loads(results.read_text())
                res.update(mean_recall_at_1=doc["mean_recall_at_1"], forgetting=doc["forgetting"])
            shutil.rmtree(out, ignore_errors=True)
            return res
        domain = self.domains[index % len(self.domains)] if self.domains else "none"
        single, r1 = self.eval_call(f"{tag}-eval-{domain}-single", domain, False, trace)
        fused, r5 = self.eval_call(f"{tag}-eval-{domain}-fused", domain, True, trace)
        return {"label": f"{tag}-eval-{domain}", "domain": domain,
                "wall": single["wall"] + fused["wall"], "cpu": single["cpu"] + fused["cpu"],
                "peak_rss_mb": max(c["report"].get("peak_rss_mb", 0.0) for c in (single, fused)),
                "mean_recall_at_1": r1["recall_at_n"] if r1 else 0.0}

    # -- the two modes -----------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Untraced: set-up reps, then operations, each after a pace, until
        ``seconds`` have passed, and a last pace."""
        self.setup()
        self.pace = Pace(self)
        try:
            t0 = time.perf_counter()
            while not self.measured or time.perf_counter() - t0 < seconds:
                self.pace.time()
                self.measured.append(self.operation(len(self.measured), trace=False))
            self.pace.time()
        finally:
            self.pace.close()

        # Eval operations take the domains in turn; each domain is summarised on its own.
        by_domain = {}
        for r in self.measured:
            by_domain.setdefault(r.get("domain"), []).append(r)
        wall = _mean([metrics.median([r["wall"] for r in rs]) for rs in by_domain.values()])
        pace = self.pace.mean_s()
        return {
            "setup_s": (metrics.median(self.setup_walls), "s"),
            "op_wall_rel": (wall / pace if pace else 0.0, "1"),
            # The smallest peak: a call's peak RSS also counts the shared-library pages
            # it mapped, which move by about 11 MB with the host's page cache.
            "peak_rss_mb": (min(r["peak_rss_mb"] for r in self.measured), "MB"),
            "mean_recall_at_1": (
                _mean([rs[0].get("mean_recall_at_1", 0.0) for rs in by_domain.values()]), "%"),
        }

    def traced_run(self) -> dict:
        """Traced: one untraced and one traced operation, then the layer cases."""
        self.setup()
        plain = self.operation(0, trace=False)
        self.measured.append(plain)
        traced = self.operation(0, trace=True)
        self.measured.append(traced)
        layers = self.child("layers", ["layers", "--seed", str(self.seed)]
                            + (["--quick"] if self.quick else []))
        self.absent.update(layers["report"].get("absent", []))
        out = {k: (v["value"], v["unit"]) for k, v in metrics.layer_metrics(self.traced).items()}
        main = [p for p in self.traced if p["run"].startswith(traced["label"])]
        out["trace.overhead_s"] = (traced["wall"] - plain["wall"], "s")
        out["trace.top_level_s"] = (metrics.top_level_seconds(main), "s")
        for name, ms in layers["report"].get("layers", {}).items():
            out[name] = (ms, "ms")
        out["forgetting"] = (plain.get("forgetting", 0.0), "pp")
        out["ops_failed"] = (metrics.failed_share(self.ops), "1")
        return out

    def record(self, result: dict) -> Path:
        self.commit = git_commit()
        self.env = self.child("environment", ["environment"])["report"].get("env")
        self.ops.pop()  # describing the machine is not an operation of the workload
        stem = f"{self.workload}-seed{self.seed}-trace{int(self.trace)}"
        records = OUT / "records"
        records.mkdir(parents=True, exist_ok=True)
        doc = {
            "workload": self.workload, "seed": self.seed, "trace": self.trace,
            "quick": self.quick, "git_commit": self.commit, "env": self.env,
            "digests": self.digests, "absent": sorted(self.absent), "ops": self.ops,
            "setup_walls": self.setup_walls, "operations": self.measured,
            "pace": {"calls": self.pace.calls, "mean_s": self.pace.mean_s(),
                     "request_means": self.pace.means} if self.pace else None,
            "result": result,
        }
        (records / f"{stem}.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
        if self.traced:
            (records / f"{stem}-spans.json").write_text(json.dumps(self.traced), encoding="utf-8")
        return records / f"{stem}.json"


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False):
    bench = Run(workload, seed, trace, quick)
    try:
        figures = bench.traced_run() if trace else bench.measure(seconds)
        attempted, failed = metrics.tally(bench.ops)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        }
        path = bench.record(result)
    finally:
        shutil.rmtree(bench.wd, ignore_errors=True)
    bad = [f"{op['op']}: {op['why']}" for op in bench.ops if not op["ok"]]
    walls = sorted(round(r["wall"], 3) for r in bench.measured)
    pace = f"; reference kernel (s): {bench.pace.mean_s():.6f}" if bench.pace else ""
    print(f"# {workload} seed={seed} trace={int(trace)} ops={attempted} "
          f"digests={json.dumps(bench.digests, sort_keys=True)}")
    print(f"# operation walls (s, sorted): {walls}; set-up walls (s): "
          f"{[round(w, 3) for w in bench.setup_walls]}{pace}")
    print(f"# env: {json.dumps(bench.env, sort_keys=True)} commit={bench.commit}")
    if bench.absent:
        print(f"# absent wrap targets (their metrics read 0): {', '.join(sorted(bench.absent))}")
    for line in bad:
        print(f"# FAILED {line}")
    print(f"# record: {path.relative_to(ROOT)}")
    return result


def quick_check() -> int:
    """Every workload once at reduced size, traced and untraced; names must match."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, DEFAULT_SEED, 0.0, bool(trace), quick=True)
            got = set(result["metrics"])
            if got != wanted[trace]:
                problems.append(f"{workload} trace={trace}: missing {sorted(wanted[trace] - got)}, "
                                f"extra {sorted(got - wanted[trace])}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed operations")
    for p in problems:
        print(f"quick: {p}")
    print("quick: ok" if not problems else f"quick: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="reduced-size check of every workload")
    args = p.parse_args()
    # Turn SIGTERM into SystemExit so that the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rankfuse" / "cli.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.quick:
        return quick_check()
    if args.workload is None:
        p.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
