"""One measured process of the benchmark.

Modes (each writes a JSON report to --report):

  cli -- ARGS...   import rankfuse.cli and call main(ARGS) in this fresh
                   interpreter; with --trace, wrap the layer boundaries
                   (see spans.py) and export the spans
  snapshots        write an (old, new) snapshot pair made from --seed through
                   the public encoder API, for the retrieval_eval workload
  layers           time single layers at the reference shapes
  pace             time a fixed reference kernel on request, between the
                   measured calls of a run (see pace())
  environment      describe the interpreter, numpy, scipy, BLAS and machine

The parent sets the BLAS thread variables and PYTHONPATH before starting it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError) as exc:  # show_config's layout differs across numpy versions
        blas = f"unknown ({exc.__class__.__name__})"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_cli(argv, trace: bool) -> dict:
    if trace:
        from spans import Tracer

        tracer = Tracer()
        cli = tracer.call("cli.import", importlib.import_module, "rankfuse.cli")
        tracer.install()
        rc = tracer.call("cli.verb", cli.main, argv)
        return {"rc": rc, "trace": tracer.export()}
    t0 = time.perf_counter()
    cli = importlib.import_module("rankfuse.cli")
    t1 = time.perf_counter()
    rc = cli.main(argv)
    return {"rc": rc, "import_s": t1 - t0, "verb_s": time.perf_counter() - t1}


def make_snapshots(config: str, seed: int, out: str) -> dict:
    import numpy as np

    from rankfuse.config import config_digest, load_config
    from rankfuse.encoder import init_params, make_snapshot, save_snapshot

    cfg = load_config(config)
    digest = config_digest(cfg)
    states = np.random.SeedSequence([seed, 0x5EED]).generate_state(2, np.uint64)
    paths = []
    for step, state in enumerate(states):
        params = init_params(int(state), cfg.encoder.hidden, cfg.encoder.dim)
        snap = make_snapshot(params, step, digest, cfg.encoder.normalize)
        paths.append(str(save_snapshot(snap, Path(out) / f"step_{step}.snap")))
    return {"rc": 0, "snapshots": paths}


def _median_ms(fn, budget_s: float, min_reps: int) -> float:
    """Median wall time of ``fn`` in ms, after one untimed warm-up call."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def layer_cases(seed: int, quick: bool) -> dict:
    """Encoder, losses and corpus generation at the reference shapes (ms)."""
    import numpy as np

    from rankfuse import continual, data, encoder, losses

    budget, reps = (0.0, 1) if quick else (0.4, 3)
    rng = np.random.Generator(np.random.PCG64(seed))
    plains = data.STYLE_PRESETS["plains"]
    samples = data.generate_domain(
        data.DomainSpec(seed=101, n_places=256, trajectory_length=900.0, style=plains),
        points_per_scan=160,
    )
    scans = np.stack([s.scan.points for s in samples])
    params = encoder.init_params(seed, 48, 32)
    policy = data.PairPolicy()
    out, absent = {}, []

    def case(metric, module, name, make_call):
        """Time one layer; a function that is gone or changed reads 0 and is listed."""
        try:
            fn = getattr(module, name)
            out[metric] = _median_ms(make_call(fn), budget, reps)
        except (AttributeError, TypeError, ValueError) as exc:
            absent.append(f"{module.__name__}.{name} ({exc.__class__.__name__})")
            out[metric] = 0.0

    def backward_call(fn, x, upstream):
        _, cache = encoder.encode_with_cache(params, x, True)
        return lambda: fn(params, x, upstream, True, cache=cache)

    for b in (16, 64):
        x = scans[:b]
        upstream = rng.normal(0.0, 1.0, (b, 32))
        case(f"encoder.forward.b{b}_ms", encoder, "encode_with_cache",
             lambda fn, x=x: lambda: fn(params, x, True))
        case(f"encoder.backward.b{b}_ms", encoder, "backward",
             lambda fn, x=x, u=upstream: backward_call(fn, x, u))
    for n in (64, 256):
        e_old, e_new = (v / np.linalg.norm(v, axis=1, keepdims=True)
                        for v in rng.normal(0.0, 1.0, (2, n, 32)))
        relation = continual.batch_relation(samples[:n], policy)
        sims = losses.similarity_matrix(e_new)
        case(f"losses.batch_hard_triplet.n{n}_ms", losses, "batch_hard_triplet",
             lambda fn, e=e_new, r=relation: lambda: fn(e, r, 0.2))
        case(f"losses.ranking_distill.n{n}_ms", losses, "ranking_distill_loss",
             lambda fn, a=e_old, b=e_new: lambda: fn(a, b, 0.1))
        case(f"losses.distribution_distill.n{n}_ms", losses, "distribution_distill_loss",
             lambda fn, a=e_old, b=e_new: lambda: fn(a, b, 1.0))
        case(f"losses.soft_ranks.n{n}_ms", losses, "soft_ranks",
             lambda fn, s=sims: lambda: fn(s, 0.1))
    split = data.DomainSpec(seed=202, n_places=400, trajectory_length=900.0,
                            style=data.STYLE_PRESETS["depot"], session=1)
    case("data.generate_domain.p400_ms", data, "generate_domain",
         lambda fn: lambda: fn(split, points_per_scan=160))
    return {"rc": 0, "layers": out, "absent": absent}


def pace() -> dict:
    """Answer each line of stdin, a number of seconds, with the mean wall time
    of one reference-kernel call over that long, as one JSON line.

    The kernel never touches rankfuse, so a change to the program leaves it
    alone. It mixes small matrix products with an interpreted loop, as the
    program does, so a spell in which the host runs this core slowly slows
    the kernel by about as much as the program.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(0))
    a, w, v = rng.normal(size=(16 * 160, 48)), rng.normal(size=(48, 48)), rng.normal(size=(64, 64))

    def kernel():
        x = a
        for _ in range(3):
            x = np.maximum(x @ w, 0.0)
        s = 0.0
        for i in range(200):
            s += float(v[i % 64, i % 7])
        return float(x.sum()) + s

    for _ in range(5):  # warm-up: first calls pay for page faults and BLAS set-up
        kernel()
    for line in sys.stdin:
        end = time.perf_counter() + float(line)
        calls, start = 0, time.perf_counter()
        while not calls or time.perf_counter() < end:
            kernel()
            calls += 1
        print(json.dumps({"calls": calls, "mean_s": (time.perf_counter() - start) / calls}),
              flush=True)
    return {"rc": 0}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--report", required=True)
    p.add_argument("--trace", action="store_true")
    sub = p.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("cli")
    c.add_argument("argv", nargs=argparse.REMAINDER)
    s = sub.add_parser("snapshots")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", required=True)
    lc = sub.add_parser("layers")
    lc.add_argument("--seed", type=int, required=True)
    lc.add_argument("--quick", action="store_true")
    sub.add_parser("environment")
    sub.add_parser("pace")
    args = p.parse_args()

    if args.mode == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        report = run_cli(argv, args.trace)
    elif args.mode == "snapshots":
        report = make_snapshots(args.config, args.seed, args.out)
    elif args.mode == "layers":
        report = layer_cases(args.seed, args.quick)
    elif args.mode == "pace":
        report = pace()
    else:
        report = {"rc": 0, "env": _environment()}
    report["peak_rss_mb"] = _peak_rss_mb()
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return int(report["rc"])


if __name__ == "__main__":
    sys.exit(main())
