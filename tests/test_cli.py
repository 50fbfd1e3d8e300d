"""End-to-end CLI runs through subprocesses: exit codes and on-disk artifacts."""

import dataclasses
import errno
import gc
import hashlib
import json
import logging
import math
import os
import shutil
import struct
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import yaml

import rankfuse.cli
import rankfuse.continual
import rankfuse.evaluation
from rankfuse.cli import _openblas_core, main
from rankfuse.config import config_digest, load_config
from rankfuse.corpus import ScanReader, load_corpus, save_corpus, scan_file
from rankfuse.data import PlaceSample, PointScan
from rankfuse.encoder import init_params, load_snapshot, make_snapshot, save_snapshot
from rankfuse.evaluation import embed

from conftest import tiny_domain
from test_config import REFERENCE, SMOKE
from test_continual import RUN_LOG_KEYS

RESULT_KEYS = {"recall_matrix", "mean_recall_at_1", "forgetting", "per_step_details"}
# sha256 of the smoke seed-0 results.json; a change here changes the program's output.
SMOKE_RESULTS_SHA256 = "038707a87bf7021e482bebfc8c2da1ceedd1071a993683cd90fdcbd519a05a5b"
# sha256 of the smoke gen-data corpora: each file's relative name, NUL, then its bytes.
SMOKE_CORPUS_SHA256 = "ffdfe70f6a29252773e6b91d41ddc410261db3d8a03bb2762f78566def66b2b7"
# sha256 of the compact sorted-key JSON of the single (Recall@1, step_1) and
# fused (Recall@5, step_0 + step_1) smoke eval.json on the smoke plains
# corpus, without its "snapshots" key.
SMOKE_EVAL_SHA256 = [
    "1b4e0bc38e1b0839df9bd376da915691e01b7d7ac2d2be4ad5418c9d17013acd",
    "6f3ad5f9bacdbe27862091f95c0ab645ff4f8e392300c564863e89fa0429c532",
]


def cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "rankfuse.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def smoke_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = cli("run", "--config", SMOKE, "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out, proc


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    proc = cli("gen-data", "--config", SMOKE, "--out", out)
    assert proc.returncode == 0, proc.stderr
    return out / "corpora", proc


# ---------------------------------------------------------------------------
# run


def test_run_reports_each_seed(smoke_out):
    _, proc = smoke_out
    assert "seed 0:" in proc.stdout
    assert "mean R@1" in proc.stdout


def test_run_prints_buffer_shortfall_warning(smoke_out):
    # The smoke buffer quota exceeds a domain's 60 training samples.
    _, proc = smoke_out
    assert "warning: buffer shortfall" in proc.stderr


def test_main_attaches_one_warning_handler(tmp_path):
    logger = logging.getLogger("rankfuse")
    for _ in range(3):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert logger.handlers.count(rankfuse.cli._WARNINGS) == 1


def test_run_writes_all_artifacts(smoke_out):
    out, _ = smoke_out
    seed_dir = out / "seed_0"
    for name in ("results.json", "recall_matrix.csv", "run_log.jsonl",
                 "step_0.snap", "step_1.snap"):
        assert (seed_dir / name).is_file(), name
    assert (out / "aggregate.json").is_file()
    assert (out / "manifest.json").is_file()


def test_results_json_wire_keys(smoke_out):
    out, _ = smoke_out
    results = json.loads((out / "seed_0" / "results.json").read_text())
    assert set(results) == RESULT_KEYS
    assert len(results["recall_matrix"]) == 2
    details = results["per_step_details"]
    assert details["seed"] == 0
    assert details["headline_mode"] == "fused"
    assert details["single"]["mean_recall_at_1"] > 0


def test_run_log_wire_keys(smoke_out):
    out, _ = smoke_out
    lines = (out / "seed_0" / "run_log.jsonl").read_text().strip().split("\n")
    assert len(lines) == 8  # 2 steps x 4 epochs
    for line in lines:
        assert set(json.loads(line)) == RUN_LOG_KEYS


def test_manifest_and_aggregate(smoke_out):
    out, _ = smoke_out
    manifest = json.loads((out / "manifest.json").read_text())
    # openblas_core is there exactly when numpy's BLAS names its kernel core.
    core = _openblas_core()
    assert set(manifest) == {"tool_version", "config_digest", "seeds", "results", "wall_clock",
                             "numpy_simd", "artifacts"} | set(core)
    assert manifest.get("openblas_core") == core.get("openblas_core")
    assert manifest["seeds"] == [0]
    assert isinstance(manifest["numpy_simd"], dict)
    clock = manifest["wall_clock"]["0"]
    assert set(clock) == {"data_seconds", "train_seconds", "eval_seconds", "per_step_seconds"}
    assert len(clock["per_step_seconds"]) == 2
    assert clock["data_seconds"] > 0
    assert clock["train_seconds"] > 0

    aggregate = json.loads((out / "aggregate.json").read_text())
    assert aggregate["config_digest"] == manifest["config_digest"]
    assert aggregate["n_seeds"] == 1
    for key in ("single_mean_recall_at_1_mean", "fused_mean_recall_at_1_mean",
                "single_forgetting_std", "fused_forgetting_std"):
        assert key in aggregate


def test_rerun_results_are_byte_identical(smoke_out, tmp_path):
    out, _ = smoke_out
    proc = cli("run", "--config", SMOKE, "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    first = (out / "seed_0" / "results.json").read_bytes()
    second = (tmp_path / "seed_0" / "results.json").read_bytes()
    assert first == second


@pytest.mark.slow
def test_results_are_identical_across_blas_thread_counts(tmp_path):
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads_{threads}"
        proc = cli("run", "--config", SMOKE, "--seed", 0, "--out", out, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append((out / "seed_0" / "results.json").read_bytes())
    assert digests[0] == digests[1]
    assert hashlib.sha256(digests[0]).hexdigest() == SMOKE_RESULTS_SHA256


BENCHMARKS = SMOKE.parent.parent / "benchmarks"


def test_reference_short_results_match_the_benchmark_pin(tmp_path):
    # The benchmark's reference_seed0 run, in-process: the training pass at
    # the reference shapes (P=160, h=48), which the smoke config never reaches.
    pinned = json.loads((BENCHMARKS / "pins.json").read_text())["reference_seed0"]["results"]
    assert main(["run", "--config", str(BENCHMARKS / "configs" / "reference_short.yaml"),
                 "--seed", "0", "--out", str(tmp_path)]) == 0
    results = (tmp_path / "seed_0" / "results.json").read_bytes()
    assert hashlib.sha256(results).hexdigest() == pinned


# The instruction sets each forced OpenBLAS core needs from the CPU.
CORE_FLAGS = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


def _reference_short_run(out, core=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    proc = cli("run", "--config", BENCHMARKS / "configs" / "reference_short.yaml",
               "--seed", 0, "--out", out, env=env)
    assert proc.returncode == 0, proc.stderr
    return out / "seed_0"


@pytest.fixture(scope="module")
def default_core_run(tmp_path_factory):
    return _reference_short_run(tmp_path_factory.mktemp("default_core"))


@pytest.mark.skipif(not _openblas_core(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: no core-name symbol")
@pytest.mark.parametrize("core", sorted(CORE_FLAGS))
def test_reference_short_bytes_do_not_depend_on_the_blas_kernel(core, default_core_run, tmp_path):
    # results.json and the float32 snapshots are the same under any OpenBLAS
    # core; run_log.jsonl's float64 losses are not, and are not compared.
    missing = CORE_FLAGS[core] - _cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(sorted(missing))}, which {core} kernels need")
    seed_dir = _reference_short_run(tmp_path, core)
    assert json.loads((tmp_path / "manifest.json").read_text())["openblas_core"] == core
    pinned = json.loads((BENCHMARKS / "pins.json").read_text())["reference_seed0"]["results"]
    assert hashlib.sha256((seed_dir / "results.json").read_bytes()).hexdigest() == pinned
    snaps = sorted(p.name for p in default_core_run.glob("step_*.snap"))
    assert snaps == sorted(p.name for p in seed_dir.glob("step_*.snap")) == ["step_0.snap", "step_1.snap"]
    for name in snaps:
        assert (seed_dir / name).read_bytes() == (default_core_run / name).read_bytes(), name


# numpy's AVX-512 dispatch targets, which hold its SIMD float64 exp; without
# them numpy's exp calls libm's.
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def _avx512_skip_reason():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return "this numpy has no numpy._core._multiarray_umath to name its SIMD targets"
    missing = [t for t in AVX512_TARGETS if t not in umath.__cpu_dispatch__]
    if missing:
        return f"this numpy dispatches to no {', '.join(missing)}"
    missing = [t for t in AVX512_TARGETS if not umath.__cpu_features__.get(t)]
    if missing:
        return f"this CPU lacks {', '.join(missing)}, so numpy's exp already calls libm"
    return None


@pytest.mark.skipif(_avx512_skip_reason() is not None, reason=str(_avx512_skip_reason()))
def test_reference_short_bytes_do_not_depend_on_numpys_simd_target(default_core_run, tmp_path):
    # The sigmoid's exp takes numpy's AVX-512 loop by default, and libm's with
    # those targets disabled; the two differ in the last bit of some floats.
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    probe = subprocess.run(
        [sys.executable, "-c", "import math, numpy as np\n"
         "v = np.random.default_rng(0).normal(0.0, 8.0, 65536)\n"
         "print(np.exp(v).tobytes() == np.array([math.exp(e) for e in v]).tobytes())"],
        capture_output=True, text=True, env=env)
    assert probe.stdout.strip() == "True", probe.stderr  # the libm path really ran
    proc = cli("run", "--config", BENCHMARKS / "configs" / "reference_short.yaml",
               "--seed", 0, "--out", tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    seed_dir = tmp_path / "seed_0"
    pinned = json.loads((BENCHMARKS / "pins.json").read_text())["reference_seed0"]["results"]
    assert hashlib.sha256((seed_dir / "results.json").read_bytes()).hexdigest() == pinned
    snaps = sorted(p.name for p in default_core_run.glob("step_*.snap"))
    assert snaps == sorted(p.name for p in seed_dir.glob("step_*.snap")) == ["step_0.snap", "step_1.snap"]
    for name in snaps:
        assert (seed_dir / name).read_bytes() == (default_core_run / name).read_bytes(), name


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least two usable CPUs",
)
def test_results_are_identical_on_one_cpu_and_on_all(tmp_path):
    # A run pinned to one CPU and a run free to use every CPU, at batches of 64.
    config = tmp_path / "wide.yaml"
    text = SMOKE.read_text()
    text = text.replace("batch_start: 16", "batch_start: 64").replace("batch_cap: 32", "batch_cap: 64")
    config.write_text(text)
    cpu = min(os.sched_getaffinity(0))
    outputs = {}
    for pin in (True, False):
        out = tmp_path / ("one_cpu" if pin else "all_cpus")
        script = (
            "import os, sys\n"
            + (f"os.sched_setaffinity(0, {{{cpu}}})\n" if pin else "")
            + "from rankfuse.cli import main\n"
            + f"sys.exit(main(['run', '--config', {str(config)!r}, '--seed', '0', '--out', {str(out)!r}]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs[pin] = (out / "seed_0" / "results.json").read_bytes()
    assert outputs[True] == outputs[False]


def test_run_encodes_each_split_once_per_snapshot(monkeypatch, tmp_path):
    # Single and fused evaluation share one embedding pass: T snapshots x T
    # tasks x (db, query) encode calls, each on a whole split.
    calls = []
    real = rankfuse.evaluation.encode

    def counting(params, scans, normalize=True):
        calls.append(len(scans))
        return real(params, scans, normalize)

    monkeypatch.setattr(rankfuse.evaluation, "encode", counting)
    assert main(["run", "--config", str(SMOKE), "--toggle", "fusion=on",
                 "--out", str(tmp_path)]) == 0
    t_total = 2
    assert len(calls) == 2 * t_total**2
    assert calls == [30] * len(calls)  # smoke test_places


def _two_seeds(tmp_path):
    """The smoke config with seeds [0, 1]."""
    config = tmp_path / "two_seeds.yaml"
    text = SMOKE.read_text()
    assert "seeds: [0]\n" in text
    config.write_text(text.replace("seeds: [0]\n", "seeds: [0, 1]\n"))
    return config


def test_run_builds_corpora_once_for_all_seeds(monkeypatch, tmp_path):
    # The splits depend only on the config: two seeds, one build of each
    # (domain, session) split. Every train split comes before the first
    # training step, every eval split after the last seed's last step, and
    # the seed that paid for them records the time of both phases.
    events, generating = [], []
    real = rankfuse.continual.generate_domain

    def generate(spec, points_per_scan, domain_id):
        t0 = time.perf_counter()
        events.append((domain_id, spec.session))
        time.sleep(0.02)
        samples = real(spec, points_per_scan, domain_id)
        generating.append(time.perf_counter() - t0)
        return samples

    def logged(step):
        def run(*args, **kwargs):
            events.append("step")
            return step(*args, **kwargs)
        return run

    monkeypatch.setattr(rankfuse.continual, "generate_domain", generate)
    for name in ("train_first_step", "train_continual_step"):
        monkeypatch.setattr(rankfuse.continual, name, logged(getattr(rankfuse.continual, name)))
    assert main(["run", "--config", str(_two_seeds(tmp_path)), "--out", str(tmp_path / "out")]) == 0
    splits = [(d, s) for d in (0, 1) for s in (0, 1, 2)]
    assert sorted(e for e in events if e != "step") == splits
    steps = [i for i, e in enumerate(events) if e == "step"]
    assert len(steps) == 4  # 2 seeds x 2 domains
    assert all(events.index((d, 0)) < steps[0] for d in (0, 1))
    assert all(events.index((d, s)) > steps[-1] for d in (0, 1) for s in (1, 2))
    clock = json.loads((tmp_path / "out" / "manifest.json").read_text())["wall_clock"]
    assert set(clock) == {"0", "1"}
    assert set(clock["0"]) == set(clock["1"])
    assert clock["0"]["data_seconds"] >= sum(generating) and clock["1"]["data_seconds"] == 0.0


def test_run_holds_one_phase_of_splits_at_a_time(monkeypatch, tmp_path):
    # While a training step runs, only train splits (session 0) are alive: no
    # database or query split is made yet. While evaluation encodes, the
    # train splits are garbage.
    splits, seen = [], []
    real = rankfuse.continual.generate_domain

    def generate(spec, points_per_scan, domain_id):
        samples = real(spec, points_per_scan, domain_id)
        splits.append((spec.session, weakref.ref(samples[0].scan.points.base)))
        return samples

    def watched(phase, call):
        def run(*args, **kwargs):
            gc.collect()
            seen.append((phase, {session for session, ref in splits if ref() is not None}))
            return call(*args, **kwargs)
        return run

    monkeypatch.setattr(rankfuse.continual, "generate_domain", generate)
    for name in ("train_first_step", "train_continual_step"):
        monkeypatch.setattr(rankfuse.continual, name,
                            watched("train", getattr(rankfuse.continual, name)))
    monkeypatch.setattr(rankfuse.evaluation, "encode", watched("eval", rankfuse.evaluation.encode))
    assert main(["run", "--config", str(_two_seeds(tmp_path)), "--out", str(tmp_path / "out")]) == 0
    assert [phase for phase, _ in seen] == ["train"] * 4 + ["eval"] * 16
    assert all(alive == ({0} if phase == "train" else {1, 2}) for phase, alive in seen)


def test_two_seed_run_writes_the_bytes_of_two_one_seed_runs(tmp_path):
    # Each seed's files are those of a run of that seed alone; results.json
    # differs only in the config digest, which covers the seed list.
    both = tmp_path / "both"
    assert main(["run", "--config", str(_two_seeds(tmp_path)), "--out", str(both)]) == 0
    for seed in (0, 1):
        alone = tmp_path / f"seed_{seed}_alone"
        assert main(["run", "--config", str(SMOKE), "--seed", str(seed), "--out", str(alone)]) == 0
        a, b = both / f"seed_{seed}", alone / f"seed_{seed}"
        for name in ("recall_matrix.csv", "run_log.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (seed, name)
        text, expected = (a / "results.json").read_text(), (b / "results.json").read_text()
        digest_a, digest_b = (json.loads(t)["per_step_details"]["config_digest"]
                              for t in (text, expected))
        assert digest_a != digest_b and text.count(digest_a) == 1
        assert text.replace(digest_a, digest_b) == expected, seed


def test_manifest_lists_the_digest_of_every_artifact(monkeypatch, tmp_path):
    # Every file the run writes but the manifest itself is listed, and each
    # listed sha256 is that of the file's bytes. Names are paths under the run
    # root, so they still resolve after a run given a relative --out moves.
    config = _two_seeds(tmp_path)
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert main(["run", "--config", str(config), "--out", "run"]) == 0
    out = tmp_path / "out"
    shutil.move(tmp_path / "cwd" / "run", out)
    manifest = json.loads((out / "manifest.json").read_text())
    listed = manifest["artifacts"]
    assert manifest["results"] == {str(s): f"seed_{s}/results.json" for s in (0, 1)}
    assert set(manifest["results"].values()) <= set(listed)
    names = ["results.json", "recall_matrix.csv", "run_log.jsonl", "step_0.snap", "step_1.snap"]
    expected = {"aggregate.json"} | {f"seed_{s}/{n}" for s in (0, 1) for n in names}
    assert set(listed) == expected
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == expected | {"manifest.json"}
    for name, sha in listed.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha, name


def test_toggles_disable_distillation_and_buffer(tmp_path):
    proc = cli("run", "--config", SMOKE, "--out", tmp_path,
               "--toggle", "rkd=off", "dkd=off", "buffer=off")
    assert proc.returncode == 0, proc.stderr
    for line in (tmp_path / "seed_0" / "run_log.jsonl").read_text().strip().split("\n"):
        payload = json.loads(line)
        assert payload["loss_rkd"] == 0.0
        assert payload["loss_dkd"] == 0.0
        assert payload["lambda"] == 0.0


def test_missing_config_exits_2(tmp_path):
    proc = cli("run", "--config", tmp_path / "nope.yaml", "--out", tmp_path)
    assert proc.returncode == 2
    assert "error" in proc.stderr


@pytest.mark.parametrize("verb", ["run", "eval"])
@pytest.mark.parametrize("fault", ["undecodable", "directory"])
def test_unreadable_config_exits_2(smoke_out, corpora, tmp_path, verb, fault):
    config = tmp_path / "bad.yaml"
    if fault == "undecodable":
        config.write_bytes(SMOKE.read_bytes() + b"# \xff\n")
        named = f"cannot read config file {config}: 'utf-8' codec can't decode byte 0xff"
    else:
        config.mkdir()
        named = f"cannot read config file {config}: [Errno 21] Is a directory"
    if verb == "run":
        proc = cli("run", "--config", config, "--out", tmp_path / "out")
    else:
        out, _ = smoke_out
        plains = corpora[0] / "plains"
        proc = cli("eval", "--snapshot", out / "seed_0" / "step_1.snap", "--config", config,
                   "--corpus", plains / "db", "--queries", plains / "query")
    assert proc.returncode == 2
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_toggle_exits_2(tmp_path):
    proc = cli("run", "--config", SMOKE, "--out", tmp_path, "--toggle", "rkd=maybe")
    assert proc.returncode == 2
    assert "on|off" in proc.stderr


def test_all_loss_terms_off_exits_2(tmp_path):
    proc = cli("run", "--config", SMOKE, "--out", tmp_path,
               "--toggle", "pr=off", "rkd=off", "dkd=off")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ("run", "--config", SMOKE),
    ("gen-data", "--config", SMOKE),
    ("gradcheck",),
    ("eval", "--snapshot", "a.snap", "--corpus", "db", "--queries", "q"),
])
def test_negative_seed_flag_exits_2(tmp_path, argv):
    # Only run and gradcheck read --seed, and gradcheck writes no files.
    out = () if argv[0] == "gradcheck" else ("--out", tmp_path)
    proc = cli(*argv, *out, "--seed", "-1")
    assert proc.returncode == 2
    if argv[0] in ("run", "gradcheck"):
        assert "argument --seed: expected a non-negative integer" in proc.stderr
    else:
        assert "unrecognized arguments: --seed -1" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("gen-data", "--config", SMOKE, "--seed", "0"),
    ("gradcheck", "--out", "somewhere"),
    ("eval", "--snapshot", "a.snap", "--corpus", "db", "--queries", "q", "--seed", "0"),
])
def test_verb_refuses_flags_it_does_not_read(argv):
    proc = cli(*argv)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {' '.join(map(str, argv[-2:]))}" in proc.stderr


@pytest.mark.parametrize("value", ["-5.0", ".nan", ".inf"])
def test_bad_trajectory_length_exits_2(tmp_path, value):
    config = tmp_path / "edited.yaml"
    config.write_text(SMOKE.read_text().replace("trajectory_length: 300.0",
                                                f"trajectory_length: {value}", 1))
    proc = cli("gen-data", "--config", config, "--out", tmp_path / "out")
    assert proc.returncode == 2
    expect = {"-5.0": "> 0, got -5.0", ".nan": "finite, got nan", ".inf": "finite, got inf"}
    assert f"config error: domains[plains].trajectory_length: must be {expect[value]}" \
        in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("section, field", [
    ("loss", "margin"), ("loss", "rank_temp"), ("loss", "dist_temp"),
    ("pairs", "neg_train"), ("pairs", "pos_test"),
    # Accepted before, and trained on.
    ("plan", "lr"), ("plan", "weight_decay"), ("plan", "lr_drop_factor"),
])
def test_infinite_config_value_exits_2(tmp_path, section, field):
    raw = yaml.safe_load(SMOKE.read_text())
    raw.setdefault(section, {})[field] = math.inf  # written as .inf
    config = tmp_path / "edited.yaml"
    config.write_text(yaml.safe_dump(raw))
    proc = cli("run", "--config", config, "--out", tmp_path / "out")
    assert proc.returncode == 2
    assert f"config error: {section}.{field}: must be finite, got inf" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("old, new, message", [
    # Read as the string "yes", it used to fail in backward, naming the cache.
    ("normalize: true", 'normalize: "yes"', "encoder.normalize: must be a boolean, got 'yes'"),
    # YAML 1.1 reads 1e9 as a string; it used to fail comparing it with batch_start.
    ("batch_cap: 32", "batch_cap: 1e9", "plan.batch_cap: must be an integer, got '1e9'"),
    ("lambda_variant: incloud", "lambda_variant: 1e9",
     "loss.lambda_variant: must be one of ('literal', 'incloud'), got '1e9'"),
])
def test_wrongly_typed_config_value_exits_2(tmp_path, old, new, message):
    config = tmp_path / "edited.yaml"
    config.write_text(SMOKE.read_text().replace(old, new, 1))
    proc = cli("run", "--config", config, "--out", tmp_path / "out")
    assert proc.returncode == 2
    assert f"config error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


# A style case's ID names its domain by the index of the YAML list entry it
# edits; the message names it by its name.
@pytest.mark.parametrize("section, field, value, message", [
    # Accepted silently before.
    ("pairs", "pos_test", True, "pairs.pos_test: must be a number, got True"),
    pytest.param("style", "yaw_jitter", True,
                 "domains[plains].style.yaw_jitter: must be a number, got True",
                 id="style-yaw_jitter-True-domains[0].style.yaw_jitter: must be a number, got True"),
    # A ValueError traceback before.
    pytest.param("style", "axis_scale", "abc",
                 "domains[plains].style.axis_scale: must be a list of numbers, got 'abc'",
                 id="style-axis_scale-abc-domains[0].style.axis_scale: "
                    "must be a list of numbers, got 'abc'"),
    # Exit 2 before, with a message that did not name the field.
    pytest.param("style", "noise", "x", "domains[plains].style.noise: must be a number, got 'x'",
                 id="style-noise-x-domains[0].style.noise: must be a number, got 'x'"),
])
def test_wrongly_typed_pair_or_style_value_exits_2(tmp_path, section, field, value, message):
    raw = yaml.safe_load(SMOKE.read_text())
    table = raw.setdefault("pairs", {}) if section == "pairs" else {}
    if section == "style":
        raw["domains"][0]["style"] = table  # an inline style table
    table[field] = value
    config = tmp_path / "edited.yaml"
    config.write_text(yaml.safe_dump(raw))
    proc = cli("gen-data", "--config", config, "--out", tmp_path / "out")
    assert proc.returncode == 2
    assert f"config error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("verb, old, new, field", [
    ("run", "seeds: [0]", "seeds: [true]", "seeds[0]"),
    ("gen-data", "seed: 101", "seed: -1", "domains[plains].seed"),
])
def test_bad_config_seed_exits_2(tmp_path, verb, old, new, field):
    config = tmp_path / "edited.yaml"
    config.write_text(SMOKE.read_text().replace(old, new, 1))
    proc = cli(verb, "--config", config, "--out", tmp_path / "out")
    assert proc.returncode == 2
    assert f"config error: {field}: must be a non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_duplicate_config_seed_exits_2(tmp_path):
    config = tmp_path / "edited.yaml"
    config.write_text(SMOKE.read_text().replace("seeds: [0]", "seeds: [0, 0]", 1))
    proc = cli("run", "--config", config, "--out", tmp_path / "out")
    assert proc.returncode == 2
    assert "config error: seeds[1]: duplicate seed 0" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["run", "gen-data"])
def test_no_domain_exits_2_before_any_output(tmp_path, verb):
    for edit in ({"domains": []}, {}):  # an empty list, and no domains key at all
        raw = {k: v for k, v in yaml.safe_load(SMOKE.read_text()).items() if k != "domains"}
        raw.update(edit)
        config = tmp_path / "edited.yaml"
        config.write_text(yaml.safe_dump(raw))
        proc = cli(verb, "--config", config, "--out", tmp_path / "out")
        assert proc.returncode == 2
        assert "config error: domains: protocol needs at least one domain" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["run", "gen-data"])
def test_out_dir_that_is_not_a_non_empty_string_exits_2(monkeypatch, capsys, tmp_path, verb):
    # None and [x] used to become the directories 'None' and "['x']" under
    # the working directory, which must stay as it was.
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "edited.yaml"
    for value, shown in [("null", "None"), ("[x]", "['x']"), ("''", "''")]:
        config.write_text(SMOKE.read_text().replace("out_dir: runs/smoke", f"out_dir: {value}", 1))
        assert main([verb, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config error: out_dir: must be a non-empty string, got {shown}\n" == err
    assert main([verb, "--config", str(SMOKE), "--out", ""]) == 2
    assert capsys.readouterr().err == "config error: out_dir: must be a non-empty string, got ''\n"
    assert [p.name for p in tmp_path.iterdir()] == ["edited.yaml"]


def test_domain_name_that_is_not_one_directory_exits_2(tmp_path):
    # '..' would write its splits into the output root, beside corpora/.
    config = tmp_path / "edited.yaml"
    config.write_text(SMOKE.read_text().replace("name: depot", "name: '..'", 1))
    proc = cli("gen-data", "--config", config, "--out", tmp_path / "out")
    assert proc.returncode == 2
    assert "config error: domains[1].name: must be a directory name" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["run", "gen-data", "eval"])
def test_out_naming_a_file_exits_2(smoke_out, tmp_path, verb):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    if verb == "eval":
        # Missing corpora: the output directory is made before any corpus loads.
        argv = ("eval", "--snapshot", smoke_out[0] / "seed_0" / "step_1.snap",
                "--corpus", tmp_path / "db", "--queries", tmp_path / "query")
    else:
        argv = (verb, "--config", SMOKE)
    proc = cli(*argv, "--out", taken)
    assert proc.returncode == 2
    named = taken / "corpora" if verb == "gen-data" else taken
    assert f"usage error: cannot make output directory {named}: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert taken.read_text() == "not a directory\n"


_RUN_FILES = [f"seed_0/{name}" for name in
              ("results.json", "recall_matrix.csv", "run_log.jsonl", "step_0.snap", "step_1.snap")]


@pytest.mark.parametrize("verb, dirs", [
    pytest.param(verb, dirs, id=f"{verb}-{'+'.join(dirs)}") for verb, dirs in [
        *(("run", [name]) for name in _RUN_FILES + ["aggregate.json", "manifest.json"]),
        ("run", ["seed_0/step_1.snap", "manifest.json"]),  # the first one checked is named
        ("eval", ["eval.json"]),
        ("gen-data", ["corpora/plains/train/poses.csv"]),
        ("gen-data", ["corpora/depot/query/scan_000029.f32"]),
        # the first one checked is named
        ("gen-data", ["corpora/plains/query/poses.csv", "corpora/depot/db/scan_000000.f32"]),
    ]
])
def test_output_file_made_a_directory_exits_2_before_any_data(
    smoke_out, corpora, monkeypatch, capsys, tmp_path, verb, dirs
):
    # Results are written only after every seed has trained, eval.json after
    # both splits are embedded, and a corpus after its split is generated: a
    # path that cannot take its file is refused before any split is
    # generated or loaded.
    monkeypatch.setattr(rankfuse.continual, "generate_domain", _never)
    monkeypatch.setattr(rankfuse.cli, "load_corpus", _never)
    out = tmp_path / "out"
    for name in dirs:
        (out / name).mkdir(parents=True)
    if verb == "eval":
        plains = corpora[0] / "plains"
        argv = ["eval", "--snapshot", str(smoke_out[0] / "seed_0" / "step_1.snap"),
                "--corpus", str(plains / "db"), "--queries", str(plains / "query")]
    else:
        argv = [verb, "--config", str(SMOKE)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: cannot write output file {out / dirs[0]}: not a regular file" in err
    assert "Traceback" not in err
    assert all((out / name).is_dir() for name in dirs)


def _never(*args, **kwargs):
    raise AssertionError("data was read before the output paths were checked")


def test_gen_data_split_directory_that_cannot_be_made_exits_2_before_any_data(
    monkeypatch, capsys, tmp_path
):
    monkeypatch.setattr(rankfuse.continual, "generate_domain", _never)
    taken = tmp_path / "out" / "corpora" / "depot" / "db"
    taken.parent.mkdir(parents=True)
    taken.write_text("not a directory\n")
    assert main(["gen-data", "--config", str(SMOKE), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"usage error: cannot make output directory {taken}: " in err
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("verb, name", [("run", "seed_0/step_0.snap"),
                                        ("run", "seed_0/run_log.jsonl"), ("eval", "eval.json")])
def test_failed_replace_keeps_the_old_file_and_exits_2(
    smoke_out, corpora, monkeypatch, capsys, tmp_path, verb, name
):
    # Artifacts go to a temporary file that then replaces the old one: when
    # the replace fails, the old file stays whole and no temporary is left.
    out = tmp_path / "out"
    old = out / name
    old.parent.mkdir(parents=True)
    old.write_bytes(b"old artifact\n")

    replace = os.replace

    def refuse(src, dst):  # only the replace of the old file fails
        if os.fspath(dst) != str(old):
            return replace(src, dst)
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))

    monkeypatch.setattr(os, "replace", refuse)
    if verb == "eval":
        plains = corpora[0] / "plains"
        argv = ["eval", "--snapshot", str(smoke_out[0] / "seed_0" / "step_1.snap"),
                "--corpus", str(plains / "db"), "--queries", str(plains / "query")]
    else:
        argv = ["run", "--config", str(SMOKE)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"usage error: cannot write output file {old}: Permission denied" in err
    assert "Traceback" not in err
    assert old.read_bytes() == b"old artifact\n"
    assert [p.name for p in old.parent.iterdir() if p.name.endswith(".tmp")] == []


# ---------------------------------------------------------------------------
# gradcheck

# sha256 of the `gradcheck --batch 4 --dim 6 --points 16` stdout; a change here
# changes what the suite checks or what a gradient computes. Its batch-hard
# and combined cases mine a relation with valid anchors.
GRADCHECK_SMALL_SHA256 = "c09cc2b0c991bbbc106716ca189d237ffd1e91c78e40ee5bab33af5f0eb7cfb9"


def test_gradcheck_passes_and_is_deterministic():
    a = cli("gradcheck", "--batch", 4, "--dim", 6, "--points", 16)
    b = cli("gradcheck", "--batch", 4, "--dim", 6, "--points", 16)
    assert a.returncode == 0, a.stderr
    lines = a.stdout.strip().split("\n")
    assert len(lines) == 9  # 2 encoder + triplet + batch-hard + rkd + 3 dkd + combined
    assert all(": ok " in line for line in lines)
    assert a.stdout == b.stdout
    assert hashlib.sha256(a.stdout.encode()).hexdigest() == GRADCHECK_SMALL_SHA256


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_gradcheck_points_below_one_exits_2(value):
    proc = cli("gradcheck", "--points", value)
    assert proc.returncode == 2
    assert f"argument --points: expected an integer >= 1, got '{value}'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gradcheck_corrupt_control_exits_5():
    proc = cli("gradcheck", "--batch", 4, "--dim", 6, "--points", 16,
               "--corrupt", "0.05")
    assert proc.returncode == 5
    assert "FAIL" in proc.stdout
    assert "gradient check failed" in proc.stderr


# ---------------------------------------------------------------------------
# gen-data + eval


def test_gen_data_writes_loadable_corpora(corpora):
    root, proc = corpora
    assert "plains" in proc.stdout and "depot" in proc.stdout
    for split, expect in (("train", 60), ("db", 30), ("query", 30)):
        corpus = load_corpus(root / "plains" / split)
        assert len(corpus) == expect
        assert corpus.scans[:1].shape == (1, 48, 3)


def test_gen_data_smoke_corpus_digest(corpora):
    # Generation drift fails here, without running the benchmark.
    root, _ = corpora
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f.relative_to(root).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    assert h.hexdigest() == SMOKE_CORPUS_SHA256


def test_eval_single_snapshot(smoke_out, corpora, tmp_path):
    out, _ = smoke_out
    root, _ = corpora
    proc = cli("eval", "--snapshot", out / "seed_0" / "step_1.snap",
               "--corpus", root / "plains" / "db",
               "--queries", root / "plains" / "query",
               "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["fusion"] is False
    assert report["embedding_dim"] == 16
    assert 0.0 <= report["recall_at_n"] <= 100.0
    assert json.loads((tmp_path / "eval.json").read_text()) == report


def test_eval_reports_are_pinned(smoke_out, corpora, tmp_path):
    # Read-path drift fails here, without running the benchmark: the smoke
    # snapshots on the smoke plains corpus, snapshot paths left out.
    out, _ = smoke_out
    root, _ = corpora
    snaps = [out / "seed_0" / f"step_{i}.snap" for i in (0, 1)]
    where = ["--corpus", root / "plains" / "db", "--queries", root / "plains" / "query"]
    digests = []
    for extra in (["--snapshot", snaps[1]],
                  ["--fusion", "on", "--at", 5, "--snapshot", snaps[0], "--snapshot", snaps[1]]):
        proc = cli("eval", *where, *extra, "--out", tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "eval.json").read_text())
        report.pop("snapshots")
        digests.append(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
    assert digests == SMOKE_EVAL_SHA256


def test_eval_fused_pair(smoke_out, corpora):
    out, _ = smoke_out
    root, _ = corpora
    proc = cli("eval", "--fusion", "on",
               "--snapshot", out / "seed_0" / "step_0.snap",
               "--snapshot", out / "seed_0" / "step_1.snap",
               "--corpus", root / "plains" / "db",
               "--queries", root / "plains" / "query")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["embedding_dim"] == 32


def test_eval_from_the_corpus_files_gives_every_cell_of_the_run(smoke_out, corpora, tmp_path,
                                                                 capsys):
    # run trains and evaluates on the scans that gen-data writes, byte for
    # byte, so eval of the run's snapshots on those files gives each (step,
    # task) cell of its recall matrix: single, and fused from step 1 on.
    out, _ = smoke_out
    root, _ = corpora
    cfg = load_config(SMOKE)
    for i, dom in enumerate(cfg.domains):
        for session, split in enumerate(("train", "db", "query")):
            for s in rankfuse.continual.domain_split(cfg, i, session):
                path = root / dom.name / split / scan_file(s.sample_id)
                assert path.read_bytes() == s.scan.points.tobytes(), path
    details = json.loads((out / "seed_0" / "results.json").read_text())["per_step_details"]
    snaps = [str(out / "seed_0" / f"step_{l}.snap") for l in range(len(cfg.domains))]
    for t, dom in enumerate(cfg.domains):
        dom_dir = root / dom.name
        where = ["--corpus", str(dom_dir / "db"), "--queries", str(dom_dir / "query"),
                 "--pos-test", repr(cfg.pairs.pos_test), "--out", str(tmp_path)]
        for l in range(len(snaps)):
            evals = [("single", "off", snaps[l:l + 1])]
            if l > 0:
                evals.append(("fused", "on", snaps[l - 1:l + 1]))
            for mode, fusion, pair in evals:
                picked = [a for s in pair for a in ("--snapshot", s)]
                assert main(["eval", *where, "--fusion", fusion, *picked]) == 0
                report = json.loads((tmp_path / "eval.json").read_text())
                assert report["recall_at_n"] == details[mode]["recall_matrix"][l][t], (mode, l, t)
    capsys.readouterr()


def test_cli_never_imports_scipy(smoke_out, corpora, tmp_path):
    # Import, single and fused eval, gen-data, run and gradcheck run without
    # loading scipy. eval also leaves out hashlib (and so OpenSSL), the config
    # (and yaml), loss, training and gradient-check modules.
    out, _ = smoke_out
    snaps = [str(out / "seed_0" / f"step_{i}.snap") for i in (0, 1)]
    plains = corpora[0] / "plains"
    script = f"""
import sys
import rankfuse.cli
assert "scipy" not in sys.modules, "import"
main = rankfuse.cli.main
where = ["--corpus", {str(plains / "db")!r}, "--queries", {str(plains / "query")!r}]
assert main(["eval", "--snapshot", {snaps[1]!r}] + where) == 0
assert main(["eval", "--fusion", "on", "--snapshot", {snaps[0]!r}, "--snapshot", {snaps[1]!r}] + where) == 0
unused = {{"hashlib", "_hashlib", "scipy", "yaml", "rankfuse.config", "rankfuse.continual",
          "rankfuse.gradcheck", "rankfuse.losses"}}
assert not unused & set(sys.modules), sorted(unused & set(sys.modules))
assert main(["gen-data", "--config", {str(SMOKE)!r}, "--out", {str(tmp_path)!r}]) == 0
assert "scipy" not in sys.modules, "gen-data"
assert "rankfuse.gradcheck" not in sys.modules, "gen-data"
assert main(["run", "--config", {str(SMOKE)!r}, "--out", {str(tmp_path / "run")!r}]) == 0
assert "scipy" not in sys.modules, "run"
assert main(["gradcheck"]) == 0
assert "scipy" not in sys.modules, "gradcheck"
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("recall_at_n") == 2
    assert "seed 0:" in proc.stdout and "combined: ok" in proc.stdout


def test_eval_never_imports_the_generator(smoke_out, corpora, tmp_path):
    # eval reads corpora through rankfuse.corpus: single, fused and with --out
    # it loads neither the generator, training nor (without --config) the
    # config. With --config it loads the config but neither the generator,
    # losses nor training.
    out, _ = smoke_out
    snaps = [str(out / "seed_0" / f"step_{i}.snap") for i in (0, 1)]
    plains = corpora[0] / "plains"
    script = f"""
import sys
from rankfuse.cli import main
where = ["--corpus", {str(plains / "db")!r}, "--queries", {str(plains / "query")!r}]
unused = {{"rankfuse.data", "rankfuse.continual", "rankfuse.config"}}
for extra in (["--snapshot", {snaps[1]!r}],
              ["--fusion", "on", "--snapshot", {snaps[0]!r}, "--snapshot", {snaps[1]!r}],
              ["--snapshot", {snaps[1]!r}, "--out", {str(tmp_path)!r}]):
    assert main(["eval"] + extra + where) == 0
    assert not unused & set(sys.modules), (extra, sorted(unused & set(sys.modules)))
assert main(["eval", "--snapshot", {snaps[1]!r}, "--config", {str(SMOKE)!r}] + where) == 0
unused = {{"rankfuse.data", "rankfuse.losses", "rankfuse.continual"}}
assert not unused & set(sys.modules), sorted(unused & set(sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("recall_at_n") == 4
    assert (tmp_path / "eval.json").is_file()


@pytest.fixture(scope="module")
def wide_corpora(tmp_path_factory):
    # 200 places of the smoke point count: three encode chunks at smoke's
    # hidden width, where the smoke splits take one.
    root = tmp_path_factory.mktemp("wide")
    return (save_corpus(tiny_domain(n_places=200, points=48), root / "db"),
            save_corpus(tiny_domain(n_places=200, session=1, points=48), root / "query"))


def test_eval_holds_one_chunk_of_scans_at_a_time(smoke_out, wide_corpora, monkeypatch):
    # Scans are read from their files a chunk at a time, once per snapshot:
    # when a chunk is read, at most the one before it is still alive, and no
    # read takes a whole split.
    out, _ = smoke_out
    db, queries = wide_corpora
    real = ScanReader.__getitem__
    chunks, alive, rows = [], [], []

    def read(self, index):
        gc.collect()
        alive.append(sum(ref() is not None for ref in chunks))
        scans = real(self, index)
        chunks.append(weakref.ref(scans))
        rows.append(len(scans))
        return scans

    monkeypatch.setattr(ScanReader, "__getitem__", read)
    snaps = [str(out / "seed_0" / f"step_{i}.snap") for i in (0, 1)]
    assert main(["eval", "--fusion", "on", "--snapshot", snaps[0], "--snapshot", snaps[1],
                 "--corpus", str(db), "--queries", str(queries)]) == 0
    assert max(alive) == 1
    assert 1 < max(rows) < 200
    assert sum(rows) >= 2 * 2 * 200  # both splits, once per snapshot


def test_embedding_a_corpus_holds_no_split_of_scans(tmp_path):
    # Pooled rows and embeddings may grow with the split; its scans may not.
    # 1,800 more scans peak less than their float32 bytes above 200.
    snap = make_snapshot(init_params(0, 8, 8), 0, "cfg", normalize=True)
    rng = np.random.default_rng(0)
    peaks = {}
    for n in (200, 2000):
        path = save_corpus([PlaceSample(PointScan(rng.uniform(-1, 1, (160, 3))),
                                        np.array([float(i), 0.0]), 0, i) for i in range(n)],
                           tmp_path / str(n))
        tracemalloc.start()
        try:
            embed([snap], load_corpus(path).scans)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] - peaks[200] < 1800 * 160 * 3 * 4, peaks


def test_eval_three_snapshots_is_usage_error(smoke_out, corpora):
    out, _ = smoke_out
    root, _ = corpora
    snap = out / "seed_0" / "step_0.snap"
    proc = cli("eval", "--fusion", "on",
               "--snapshot", snap, "--snapshot", snap, "--snapshot", snap,
               "--corpus", root / "plains" / "db",
               "--queries", root / "plains" / "query")
    assert proc.returncode == 2
    assert "two snapshots" in proc.stderr


def test_eval_snapshot_count_must_match_fusion(smoke_out, corpora):
    out, _ = smoke_out
    root, _ = corpora
    snap = out / "seed_0" / "step_0.snap"
    splits = ("--corpus", root / "plains" / "db", "--queries", root / "plains" / "query")
    proc = cli("eval", "--fusion", "on", "--snapshot", snap, *splits)
    assert proc.returncode == 2
    assert "two snapshots" in proc.stderr
    proc = cli("eval", "--snapshot", snap, "--snapshot", snap, *splits)
    assert proc.returncode == 2
    assert "one snapshot" in proc.stderr


def test_eval_digest_mismatch_exits_4(smoke_out, corpora):
    out, _ = smoke_out
    root, _ = corpora
    proc = cli("eval", "--snapshot", out / "seed_0" / "step_1.snap",
               "--config", REFERENCE,
               "--corpus", root / "plains" / "db",
               "--queries", root / "plains" / "query")
    assert proc.returncode == 4
    snap = out / "seed_0" / "step_1.snap"
    assert f"snapshot digest of {snap} does not match --config {REFERENCE}" in proc.stderr


def test_eval_fused_snapshots_from_different_configs_exit_4(smoke_out, corpora, tmp_path):
    out, _ = smoke_out
    root, _ = corpora
    new = out / "seed_0" / "step_1.snap"
    foreign = load_snapshot(out / "seed_0" / "step_0.snap")
    foreign = dataclasses.replace(foreign, config_digest=config_digest(load_config(REFERENCE)))
    old = save_snapshot(foreign, tmp_path / "reference_step_0.snap")
    proc = cli("eval", "--fusion", "on", "--snapshot", old, "--snapshot", new,
               "--corpus", root / "plains" / "db",
               "--queries", root / "plains" / "query")
    assert proc.returncode == 4
    assert f"snapshots come from different configs: {old} and {new}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_missing_snapshot_exits_2(corpora, tmp_path):
    root, _ = corpora
    proc = cli("eval", "--snapshot", tmp_path / "missing.snap",
               "--corpus", root / "plains" / "db",
               "--queries", root / "plains" / "query")
    assert proc.returncode == 2
    assert "not found" in proc.stderr


@pytest.mark.parametrize("flag, value, message", [
    ("--at", "0", "argument --at: expected an integer >= 1, got '0'"),
    ("--at", "-1", "argument --at: expected an integer >= 1, got '-1'"),
    ("--at", "x", "argument --at: expected an integer >= 1, got 'x'"),
    ("--pos-test", "nan", "argument --pos-test: expected a finite number > 0, got 'nan'"),
    ("--pos-test", "inf", "argument --pos-test: expected a finite number > 0, got 'inf'"),
    ("--pos-test", "0", "argument --pos-test: expected a finite number > 0, got '0'"),
    ("--pos-test", "x", "argument --pos-test: expected a finite number > 0, got 'x'"),
])
def test_eval_flags_are_checked_before_any_corpus_loads(smoke_out, corpora, tmp_path,
                                                         monkeypatch, capsys, flag, value, message):
    # A usage error used to cost a whole ingest: --at failed only in
    # recall_at_n, after both splits were loaded and embedded.
    out, _ = smoke_out
    plains = corpora[0] / "plains"
    loads = []
    monkeypatch.setattr(rankfuse.cli, "load_corpus", lambda path: loads.append(path))
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--snapshot", str(out / "seed_0" / "step_1.snap"),
              "--corpus", str(plains / "db"), "--queries", str(plains / "query"),
              "--out", str(tmp_path), f"{flag}={value}"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert loads == []
    assert not (tmp_path / "eval.json").exists()


def _eval_snapshot(corpora, snap):
    root, _ = corpora
    proc = cli("eval", "--snapshot", snap,
               "--corpus", root / "plains" / "db",
               "--queries", root / "plains" / "query")
    assert "Traceback" not in proc.stderr
    return proc


def _snapshot_bytes(smoke_out):
    out, _ = smoke_out
    raw = bytearray((out / "seed_0" / "step_1.snap").read_bytes())
    # magic (4), version (4), digest length (2), digest, step/hidden/dim (12), flag (1)
    (dlen,) = struct.unpack("<H", raw[8:10])
    return raw, 10 + dlen


def test_eval_snapshot_directory_exits_2(corpora, tmp_path):
    proc = _eval_snapshot(corpora, tmp_path)
    assert proc.returncode == 2
    assert f"cannot read snapshot file {tmp_path}" in proc.stderr


def test_eval_snapshot_non_utf8_digest_exits_2(smoke_out, corpora, tmp_path):
    raw, _ = _snapshot_bytes(smoke_out)
    raw[10] = 0xFF
    snap = tmp_path / "bad_digest.snap"
    snap.write_bytes(raw)
    proc = _eval_snapshot(corpora, snap)
    assert proc.returncode == 2
    assert f"config digest in snapshot file {snap} is not UTF-8" in proc.stderr


def test_eval_snapshot_unsupported_version_exits_2(smoke_out, corpora, tmp_path):
    raw, _ = _snapshot_bytes(smoke_out)
    raw[4:8] = struct.pack("<I", 7)
    snap = tmp_path / "v7.snap"
    snap.write_bytes(raw)
    proc = _eval_snapshot(corpora, snap)
    assert proc.returncode == 2
    assert f"unsupported snapshot version 7 in {snap}" in proc.stderr


@pytest.mark.parametrize("hidden, dim", [(0, 8), (8, 0)])
def test_eval_snapshot_zero_dims_exits_2(smoke_out, corpora, tmp_path, hidden, dim):
    # A self-consistent file: exactly the tensor bytes its header asks for.
    raw, head = _snapshot_bytes(smoke_out)
    step, _, _ = struct.unpack("<III", raw[head : head + 12])
    floats = 3 * hidden + hidden + hidden * hidden + hidden + hidden * dim + dim
    snap = tmp_path / "empty_dims.snap"
    snap.write_bytes(raw[:head] + struct.pack("<III", step, hidden, dim) + raw[head + 12 : head + 13]
                     + np.zeros(floats, dtype="<f4").tobytes())
    proc = _eval_snapshot(corpora, snap)
    assert proc.returncode == 2
    assert f"snapshot file {snap} has hidden={hidden}, dim={dim}" in proc.stderr


def _eval_on(smoke_out, database, queries):
    out, _ = smoke_out
    return cli("eval", "--snapshot", out / "seed_0" / "step_1.snap",
               "--corpus", database, "--queries", queries)


def test_eval_missing_corpus_exits_2(smoke_out, corpora, tmp_path):
    root, _ = corpora
    proc = _eval_on(smoke_out, tmp_path / "nope", root / "plains" / "query")
    assert proc.returncode == 2
    assert "ingestion error" in proc.stderr
    assert str(tmp_path / "nope") in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture
def db_copy(corpora, tmp_path):
    root, _ = corpora
    return shutil.copytree(root / "plains" / "db", tmp_path / "db")


def test_eval_nan_scan_exits_2(smoke_out, corpora, db_copy):
    root, _ = corpora
    scan = db_copy / "scan_000002.f32"
    pts = np.frombuffer(scan.read_bytes(), dtype="<f4").copy()
    pts[0] = np.nan
    scan.write_bytes(pts.tobytes())
    proc = _eval_on(smoke_out, db_copy, root / "plains" / "query")
    assert proc.returncode == 2
    assert "line 4: scan file scan_000002.f32 has non-finite values" in proc.stderr
    assert str(db_copy / "poses.csv") in proc.stderr


def test_eval_nan_pose_exits_2(smoke_out, corpora, db_copy):
    root, _ = corpora
    lines = (db_copy / "poses.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[2] = "nan"
    lines[1] = ",".join(fields)
    (db_copy / "poses.csv").write_text("\n".join(lines) + "\n")
    proc = _eval_on(smoke_out, root / "plains" / "db", db_copy)
    assert proc.returncode == 2
    assert f"{db_copy / 'poses.csv'} line 2: non-finite pose" in proc.stderr


@pytest.mark.parametrize("fault", ["nan_scan", "missing"])
def test_eval_query_side_fault_exits_2_after_the_database(smoke_out, corpora, tmp_path, fault):
    # The queries load after the database is embedded; a bad query split
    # still exits 2, names its file and writes no report.
    out, _ = smoke_out
    root, _ = corpora
    queries = tmp_path / "query"
    if fault == "nan_scan":
        shutil.copytree(root / "plains" / "query", queries)
        scan = queries / "scan_000002.f32"
        pts = np.frombuffer(scan.read_bytes(), dtype="<f4").copy()
        pts[0] = np.nan
        scan.write_bytes(pts.tobytes())
        named = f"{queries / 'poses.csv'} line 4: scan file scan_000002.f32 has non-finite values"
    else:
        named = f"missing poses.csv in {queries}"
    report = tmp_path / "report"
    proc = cli("eval", "--snapshot", out / "seed_0" / "step_1.snap", "--out", report,
               "--corpus", root / "plains" / "db", "--queries", queries)
    assert proc.returncode == 2
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (report / "eval.json").exists()


def test_eval_non_finite_scan_in_the_last_query_chunk_exits_2(smoke_out, corpora, wide_corpora,
                                                             tmp_path):
    # Scans are checked as each chunk is read: a bad value in the last chunk
    # of the queries, read after the database and the other chunks are
    # embedded, still exits 2, names its file and line and writes no report.
    out, _ = smoke_out
    root, _ = corpora
    queries = shutil.copytree(wide_corpora[1], tmp_path / "query")
    scan = queries / "scan_000199.f32"
    pts = np.frombuffer(scan.read_bytes(), dtype="<f4").copy()
    pts[-1] = np.inf
    scan.write_bytes(pts.tobytes())
    report = tmp_path / "report"
    proc = cli("eval", "--snapshot", out / "seed_0" / "step_1.snap", "--out", report,
               "--corpus", root / "plains" / "db", "--queries", queries)
    assert proc.returncode == 2
    assert (f"{queries / 'poses.csv'} line 201: scan file scan_000199.f32 has non-finite values"
            in proc.stderr)
    assert "Traceback" not in proc.stderr
    assert not (report / "eval.json").exists()


def test_eval_header_only_corpus_exits_2(smoke_out, corpora, db_copy):
    root, _ = corpora
    header = (db_copy / "poses.csv").read_text().splitlines()[0]
    (db_copy / "poses.csv").write_text(header + "\n")
    proc = _eval_on(smoke_out, db_copy, root / "plains" / "query")
    assert proc.returncode == 2
    assert f"{db_copy / 'poses.csv'}: no samples" in proc.stderr


@pytest.mark.parametrize("fault", ["undecodable", "oversize_field"])
def test_eval_unreadable_poses_exits_2(smoke_out, corpora, db_copy, fault):
    root, _ = corpora
    poses = db_copy / "poses.csv"
    raw = poses.read_bytes()
    if fault == "undecodable":  # line 2 starts at byte 24
        poses.write_bytes(raw[:40] + b"\xff" + raw[41:])
        named = f"{poses} line 2: not UTF-8 text"
    else:
        poses.write_bytes(raw + b"30,1.0,2.0," + b"x" * 140_000 + b"\n")
        named = f"{poses} line 32: field larger than field limit"
    proc = _eval_on(smoke_out, db_copy, root / "plains" / "query")
    assert proc.returncode == 2
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr


# The file boundary: every file the CLI reads, made a directory, given bad
# bytes (undecodable text, or binary cut short) or taken away, exits 2 with
# a message that names it. Each entry: the verb that reads the file, and how
# its bytes go bad.
_BOUNDARY_FILES = {
    "config": ("run", lambda raw: b"\xff" + raw),
    "poses": ("eval", lambda raw: raw[:40] + b"\xff" + raw[41:]),
    "scan": ("eval", lambda raw: raw[:-4]),
    "snapshot": ("eval", lambda raw: raw[:-4]),
}


@pytest.mark.parametrize("form", ["directory", "bad_bytes", "missing"])
@pytest.mark.parametrize("target", sorted(_BOUNDARY_FILES))
def test_every_input_file_fails_at_the_boundary(smoke_out, corpora, tmp_path, target, form):
    out, _ = smoke_out
    root, _ = corpora
    db = shutil.copytree(root / "plains" / "db", tmp_path / "db")
    snap = shutil.copy(out / "seed_0" / "step_1.snap", tmp_path / "step_1.snap")
    config = shutil.copy(SMOKE, tmp_path / "smoke.yaml")
    path, named = {
        "config": (config, [str(config)]),
        "poses": (db / "poses.csv", [str(db), "poses.csv"]),
        "scan": (db / "scan_000002.f32", [str(db / "poses.csv"), "scan_000002.f32"]),
        "snapshot": (snap, [str(snap)]),
    }[target]
    verb, damage = _BOUNDARY_FILES[target]
    raw = path.read_bytes()
    path.unlink()
    if form == "directory":
        path.mkdir()
    elif form == "bad_bytes":
        path.write_bytes(damage(raw))
    if verb == "run":
        proc = cli("run", "--config", config, "--out", tmp_path / "out")
    else:
        proc = cli("eval", "--snapshot", snap, "--corpus", db,
                   "--queries", root / "plains" / "query")
    assert proc.returncode == 2, proc.stderr
    for text in named:
        assert text in proc.stderr
    assert "Traceback" not in proc.stderr
