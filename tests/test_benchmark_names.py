"""The names the benchmark wraps and calls exist.

``benchmarks/spans.py`` patches module attributes and ``benchmarks/child.py``
calls package functions by name. A refactor that renames one does not fail
the benchmark: the tracer lists the target as absent and a layer case reads
0. These tests fail instead. Both files are only read, never imported as
modules of the benchmark.
"""

import ast
import importlib
import runpy
from pathlib import Path

import rankfuse.cli

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


def test_cli_names_no_training_entry_point():
    assert [name for name in TRAINING_NAMES if hasattr(rankfuse.cli, name)] == []
