"""Command-line front end.

Verbs:
  run        train + evaluate a configured protocol for each seed
  eval       standalone retrieval evaluation from saved snapshots
  gradcheck  finite-difference verification of every analytic gradient
  gen-data   write synthetic corpora in the on-disk format

Exit codes: 0 success; 2 invalid config, usage or corpus input, an output
directory that cannot be made or an output file path that is not a regular
file; 3 training abort; 4 snapshot/config digest mismatch; 5 gradient check
failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import POSES_FILE, load_corpus, save_corpus, scan_file
from .encoder import load_snapshot
from .errors import ConfigurationError, IngestionError, TrainingError, UsageError, write_atomic
from .evaluation import (
    RECALL_CSV,
    RESULTS_FILE,
    dump_results,
    embed,
    embed_protocol,
    evaluate_protocol,
    recall_at_n,
    results_dict,
    write_recall_csv,
)
# Config (and yaml), the losses, training and the gradient suite load in the
# verbs that run them.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_DIGEST = 4
EXIT_GRADCHECK = 5


class _StderrHandler(logging.Handler):
    """Writes each record to the ``sys.stderr`` of the moment it is logged."""

    def emit(self, record):
        print(self.format(record), file=sys.stderr)


_WARNINGS = _StderrHandler()
_WARNINGS.setFormatter(logging.Formatter("warning: %(message)s"))


def _seed(text: str) -> int:
    """The type of ``--seed``: a non-negative integer, as numpy's generators need."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    """The type of ``eval --at`` and ``gradcheck --points``: an integer >= 1,
    checked before any work."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _radius(text: str) -> float:
    """The type of ``--pos-test``: a finite number of meters > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rankfuse", description=__doc__.split("\n")[0])
    p.add_argument("--version", action="version", version=f"rankfuse {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="train and evaluate a protocol")
    run.add_argument("--config", required=True, help="experiment config (YAML)")
    run.add_argument("--seed", type=_seed, default=None, help="override the config seed list")
    run.add_argument("--out", default=None, help="output directory override")
    run.add_argument(
        "--toggle",
        action="extend",
        nargs="+",
        metavar="NAME=on|off",
        help="flip terms: pr, rkd, dkd, buffer, fusion (repeatable, space-separable)",
    )
    # The config checks both against the one list of each choice, in config.
    run.add_argument("--lambda-variant", default=None, help="override loss.lambda_variant")
    run.add_argument("--divergence", default=None, help="override loss.divergence")

    ev = sub.add_parser("eval", help="evaluate saved snapshots on a corpus")
    ev.add_argument("--snapshot", action="append", required=True, help="snapshot file (repeatable)")
    ev.add_argument("--corpus", required=True, help="database corpus directory")
    ev.add_argument("--queries", required=True, help="query corpus directory")
    ev.add_argument("--fusion", choices=["on", "off"], default="off")
    ev.add_argument("--config", default=None, help="verify snapshots against this config")
    ev.add_argument("--pos-test", type=_radius, default=25.0, help="positive radius, meters")
    ev.add_argument("--at", type=_positive_int, default=1, help="N for Recall@N")
    ev.add_argument("--out", default=None, help="also write eval.json to this directory")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    gc.add_argument("--seed", type=_seed, default=0, help="seed of the random inputs")
    gc.add_argument("--batch", type=int, default=5)
    gc.add_argument("--dim", type=int, default=8)
    gc.add_argument("--points", type=_positive_int, default=32)
    gc.add_argument("--corrupt", type=float, default=0.0, help=argparse.SUPPRESS)

    gd = sub.add_parser("gen-data", help="write synthetic corpora to disk")
    gd.add_argument("--config", required=True, help="experiment config (YAML)")
    gd.add_argument("--out", default=None, help="output directory override")
    return p


def _out_dir(path) -> Path:
    """Make an output directory; one that cannot be made is a usage error naming it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {out}: {exc.strerror}") from None
    return out


def _out_files(paths) -> None:
    """Refuse the first output file path that exists and is not a regular file."""
    for path in paths:
        if path.exists() and not path.is_file():
            raise UsageError(f"cannot write output file {path}: not a regular file")


def _corpus_dir(path, n: int) -> Path:
    """Make a corpus directory for an ``n``-scan split and refuse the first of
    its poses.csv and scan file entries that is not a regular file: one
    listing of the directory, however many scans it takes."""
    out = _out_dir(path)
    names = {POSES_FILE, *map(scan_file, range(n))}
    with os.scandir(out) as entries:
        bad = sorted(e.name for e in entries if e.name in names and not e.is_file())
    _out_files(out / name for name in bad)
    return out


# ---------------------------------------------------------------------------
# run


def _effective_config(args):
    from .config import apply_overrides, load_config, parse_toggle_args

    cfg = load_config(args.config)
    return apply_overrides(
        cfg,
        seed=getattr(args, "seed", None),
        out=args.out,
        toggles=parse_toggle_args(getattr(args, "toggle", None)),
        lambda_variant=getattr(args, "lambda_variant", None),
        divergence=getattr(args, "divergence", None),
    )


def _openblas_core() -> dict:
    """``{"openblas_core": name}`` for a DYNAMIC_ARCH OpenBLAS under numpy, else ``{}``."""
    import ctypes

    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # its lookups search the BLAS it links
    try:
        corename = ctypes.CFUNCTYPE(ctypes.c_char_p)(("scipy_openblas_get_corename64_", lib))
    except AttributeError:
        return {}
    return {"openblas_core": corename().decode()}


def _numpy_simd() -> dict:
    """numpy's SIMD baseline and the dispatch targets it found on this CPU."""
    try:
        return np.show_config(mode="dicts").get("SIMD Extensions", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        return {}


def cmd_run(args) -> int:
    import hashlib  # here, so that eval (which computes no digest) never maps OpenSSL

    from .config import config_digest
    from .continual import RUN_LOG_NAME, build_protocol_data, run_protocol

    cfg = _effective_config(args)
    digest = config_digest(cfg)
    out_root = _out_dir(cfg.out_dir)
    seed_dirs = {seed: _out_dir(out_root / f"seed_{seed}") for seed in cfg.seeds}
    # Results are written only once every seed has trained, so each output
    # file's path is checked before any of that work. The manifest lists
    # the sha256 of each of them but itself.
    names = [RESULTS_FILE, RECALL_CSV, RUN_LOG_NAME]
    names += [f"step_{t}.snap" for t in range(len(cfg.domains))]
    artifacts = [d / name for d in seed_dirs.values() for name in names]
    artifacts.append(out_root / "aggregate.json")
    _out_files(artifacts + [out_root / "manifest.json"])

    manifest = {
        "tool_version": __version__,
        "config_digest": digest,
        "seeds": list(cfg.seeds),
        "results": {},
        "wall_clock": {},
        # The SIMD kernels numpy picked and the BLAS core: the kernel the
        # bytes of results.json are reproducible on.
        "numpy_simd": _numpy_simd(),
        **_openblas_core(),
    }
    agg = {"single": {"mean_recall_at_1": [], "forgetting": []},
           "fused": {"mean_recall_at_1": [], "forgetting": []}}
    # The splits depend only on the config, so each is built once. Training
    # holds only the train splits; they go before the eval splits are made.
    t_data = time.perf_counter()
    (train,) = build_protocol_data(cfg, (0,))
    data_seconds = time.perf_counter() - t_data
    trained = {}
    for seed in cfg.seeds:
        t0 = time.perf_counter()
        snapshots, step_seconds = run_protocol(cfg, seed, train, seed_dirs[seed], digest)
        trained[seed] = snapshots, step_seconds, time.perf_counter() - t0
    del train
    t_data = time.perf_counter()
    db, query = build_protocol_data(cfg, (1, 2))
    data_seconds += time.perf_counter() - t_data  # the first seed pays for both phases
    task_names = [d.name for d in cfg.domains]
    for seed, (snapshots, step_seconds, train_seconds) in trained.items():
        seed_dir = seed_dirs[seed]
        t1 = time.perf_counter()
        emb = embed_protocol(snapshots, db, query)
        single = evaluate_protocol(emb, cfg, fusion=False)
        fused = evaluate_protocol(emb, cfg, fusion=True) if cfg.fusion else None
        t2 = time.perf_counter()
        headline = fused if fused is not None else single
        results = results_dict(single, fused, seed, digest)
        write_atomic(seed_dir / RESULTS_FILE, dump_results(results))
        write_recall_csv(headline.recall_matrix, task_names, seed_dir / RECALL_CSV)
        manifest["results"][str(seed)] = f"seed_{seed}/{RESULTS_FILE}"  # as artifacts keys it
        manifest["wall_clock"][str(seed)] = {
            "data_seconds": data_seconds,
            "train_seconds": train_seconds,
            "eval_seconds": t2 - t1,
            "per_step_seconds": step_seconds,
        }
        data_seconds = 0.0
        agg["single"]["mean_recall_at_1"].append(single.mean_recall_at_1)
        if single.forgetting:
            agg["single"]["forgetting"].append(single.forgetting.score)
        if fused is not None:
            agg["fused"]["mean_recall_at_1"].append(fused.mean_recall_at_1)
            if fused.forgetting:
                agg["fused"]["forgetting"].append(fused.forgetting.score)
        print(
            f"seed {seed}: mean R@1 {headline.mean_recall_at_1:.2f}"
            + (f", F {headline.forgetting.score:.2f}" if headline.forgetting else "")
        )

    aggregate = {"config_digest": digest, "n_seeds": len(cfg.seeds)}
    for mode, stats in agg.items():
        for key, vals in stats.items():
            if vals:
                aggregate[f"{mode}_{key}_mean"] = float(np.mean(vals))
                aggregate[f"{mode}_{key}_std"] = float(np.std(vals))
    write_atomic(out_root / "aggregate.json", dump_results(aggregate))
    manifest["artifacts"] = {path.relative_to(out_root).as_posix():
                             hashlib.sha256(path.read_bytes()).hexdigest() for path in artifacts}
    write_atomic(out_root / "manifest.json", dump_results(manifest))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _embed_corpus(snaps, path):
    """A corpus's embeddings, poses and sample ids. Its scans are read from
    their files a chunk at a time, once per snapshot, and never all held."""
    corpus = load_corpus(path)
    return embed(snaps, corpus.scans), corpus.poses, corpus.sample_ids


def cmd_eval(args) -> int:
    fusion = args.fusion == "on"
    snaps = [load_snapshot(p) for p in args.snapshot]
    if fusion and len(snaps) != 2:
        raise UsageError(f"--fusion on needs exactly two snapshots, got {len(snaps)}")
    if not fusion and len(snaps) != 1:
        raise UsageError(f"single-model eval needs one snapshot, got {len(snaps)}")

    digests = {s.config_digest for s in snaps}
    names = " and ".join(str(p) for p in args.snapshot)
    if len(digests) > 1:
        print(f"error: snapshots come from different configs: {names}", file=sys.stderr)
        return EXIT_DIGEST
    if args.config is not None:
        from .config import config_digest, load_config

        cfg = load_config(args.config)
        if config_digest(cfg) not in digests:
            print(f"error: snapshot digest of {names} does not match --config {args.config}",
                  file=sys.stderr)
            return EXIT_DIGEST

    out = None
    if args.out:  # checked before any corpus loads
        out = _out_dir(args.out) / "eval.json"
        _out_files([out])
    db_emb, db_poses, db_ids = _embed_corpus(snaps, args.corpus)
    q_emb, q_poses, _ = _embed_corpus(snaps, args.queries)
    outcome = recall_at_n(db_emb, db_poses, db_ids, q_emb, q_poses, args.pos_test, args.at)
    report = {
        "recall_at_n": outcome.percent,
        "n": args.at,
        "evaluated": outcome.evaluated,
        "excluded": outcome.excluded,
        "embedding_dim": int(db_emb.shape[1]),
        "fusion": fusion,
        "snapshots": [str(p) for p in args.snapshot],
    }
    text = dump_results(report)
    if out is not None:
        write_atomic(out, text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    from .gradcheck import gradcheck_suite

    reports = gradcheck_suite(args.seed, args.batch, args.dim, args.points, corrupt=args.corrupt)
    for report in reports:
        print(report.line())
    offenders = [r.name for r in reports if not r.passed]
    if not offenders:
        return EXIT_OK
    print(f"gradient check failed: {', '.join(offenders)}", file=sys.stderr)
    return EXIT_GRADCHECK


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    from .continual import domain_split

    cfg = _effective_config(args)
    out_root = _out_dir(Path(cfg.out_dir) / "corpora")
    # Every split's directory and files are checked before any split is made.
    dirs = []
    for dom in cfg.domains:
        places = (dom.train_places, dom.test_places, dom.test_places)
        dirs.append([_corpus_dir(out_root / dom.name / name, n)
                     for name, n in zip(("train", "db", "query"), places)])
    for i, dom in enumerate(cfg.domains):
        for session, out in enumerate(dirs[i]):  # each saved as it is made
            save_corpus(domain_split(cfg, i, session), out)
        print(f"domain {dom.name}: wrote train/db/query under {out_root / dom.name}")
    return EXIT_OK


def main(argv=None) -> int:
    # addHandler skips a handler already attached, so repeated calls add one.
    logging.getLogger("rankfuse").addHandler(_WARNINGS)
    args = _parser().parse_args(argv)
    verbs = {"run": cmd_run, "eval": cmd_eval, "gradcheck": cmd_gradcheck, "gen-data": cmd_gen_data}
    try:
        return verbs[args.verb](args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
