"""The names the benchmark wraps and calls exist.

``benchmarks/spans.py`` patches module attributes and ``benchmarks/child.py``
calls package functions by name. A refactor that renames one does not fail
the benchmark: the tracer lists the target as absent and a layer case reads
0. These tests fail instead. Both files are only read, never imported as
modules of the benchmark, and the layer cases run once in a subprocess that
writes nothing under ``benchmarks/``.
"""

import ast
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import rankfuse.cli
import rankfuse.corpus
import rankfuse.evaluation
from rankfuse.corpus import load_corpus, save_corpus
from rankfuse.encoder import init_params, make_snapshot
from rankfuse.evaluation import embed

from conftest import tiny_domain

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
# Wrap targets already gone from the program; the benchmark still lists them.
KNOWN_ABSENT = {
    "rankfuse.cli.build_index",
    "rankfuse.cli.generate_domain",
    "rankfuse.evaluation.retrieve",
}
TRAINING_NAMES = (
    "encode_with_cache",
    "backward",
    "flatten_params",
    "unflatten_params",
    "init_params",
    "combined_loss",
    "ranking_distill_loss",
    "distribution_distill_loss",
    "batch_hard_triplet",
    "triplet_loss",
)


def _resolves(module: str, attr: str) -> bool:
    return hasattr(importlib.import_module(module), attr)


def test_every_wrap_target_resolves():
    # run_path compiles the source itself, so nothing is written under benchmarks/.
    targets = runpy.run_path(str(BENCH / "spans.py"))["TARGETS"]
    names = {(module, attr) for module, attr, _, _ in targets}
    missing = sorted(f"{m}.{a}" for m, a in names
                     if f"{m}.{a}" not in KNOWN_ABSENT and not _resolves(m, a))
    assert missing == []
    assert ("rankfuse.cli", "load_snapshot") in names


def test_every_name_child_calls_exists():
    tree = ast.parse((BENCH / "child.py").read_text(encoding="utf-8"))
    # `from rankfuse import continual, ...` binds these module names in child.py.
    modules = {"continual", "data", "encoder", "losses"}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rankfuse."):
            used.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            used.add((f"rankfuse.{node.value.id}", node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "case"):
            # case(metric, module, "name", make_call) times module.name.
            module, name = node.args[1], node.args[2]
            used.add((f"rankfuse.{module.id}", name.value))
    assert ("rankfuse.encoder", "backward") in used  # the walk found the layer cases
    assert sorted(f"{m}.{a}" for m, a in used if not _resolves(m, a)) == []


def test_load_corpus_len_is_the_scan_count(tmp_path):
    # data.load_corpus.scans counts len(load_corpus(...)), and
    # encoder.eval_forward.rows the len of the scan reader that eval encodes.
    corpus = load_corpus(save_corpus(tiny_domain(n_places=7, points=8), tmp_path / "c"))
    assert len(corpus) == len(corpus.scans) == 7


def test_cli_corpus_names_are_the_corpus_module_functions():
    # spans.py wraps rankfuse.cli.load_corpus and save_corpus as data.load_corpus
    # and data.save_corpus: they must be the functions eval and gen-data run.
    assert rankfuse.cli.load_corpus is rankfuse.corpus.load_corpus
    assert rankfuse.cli.save_corpus is rankfuse.corpus.save_corpus


def test_fused_embed_encodes_a_reader_once_per_snapshot(tmp_path, monkeypatch):
    # encoder.eval_forward.rows adds len(scans) per rankfuse.evaluation.encode
    # call: a fused eval of an n-scan split counts 2 n rows.
    corpus = load_corpus(save_corpus(tiny_domain(n_places=7, points=8), tmp_path / "c"))
    real, rows = rankfuse.evaluation.encode, []

    def spy(params, scans, normalize=True):
        rows.append(len(scans))
        return real(params, scans, normalize=normalize)

    monkeypatch.setattr(rankfuse.evaluation, "encode", spy)
    snaps = [make_snapshot(init_params(seed, 8, 4), seed, "d", True) for seed in (1, 2)]
    assert embed(snaps, corpus.scans).shape == (7, 8)
    assert rows == [7, 7]


def test_cli_names_no_training_entry_point():
    assert [name for name in TRAINING_NAMES if hasattr(rankfuse.cli, name)] == []


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in root.rglob("*")}


def test_every_layer_case_runs(tmp_path):
    # A name that resolves can still change its call form: then the case
    # catches the TypeError, lists it as absent and reads 0.
    before = _tree(BENCH)
    report = tmp_path / "layers.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "--report", str(report),
                           "layers", "--seed", "0", "--quick"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(report.read_text())
    assert out["absent"] == []
    assert len(out["layers"]) == 13
    assert {name: ms for name, ms in out["layers"].items() if not ms > 0} == {}
    assert _tree(BENCH) == before
