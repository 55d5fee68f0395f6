"""Smoke tests of the benchmark itself, at the tiny input size.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from trpca import prox, solver  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# per-layer metrics the benchmark was specified with; BENCHMARK.json may add more
REQUIRED_PER_LAYER = (
    "solver.iterations", "solver.iter_s", "solver.self_s",
    "prox.tsvt_s", "prox.tsvt_self_s", "prox.soft_threshold_s",
    "prox.svd_s", "prox.svd_share", "prox.svd_slices", "prox.svd_gflop_computed",
    "prox.svd_gflops", "prox.sv_kept_frac",
    "transform.apply_s", "transform.apply_inverse_s", "transform.calls",
    "transform.gbytes_computed", "transform.gflops",
    "tlinalg.svd_values_s", "tlinalg.svd_full_s", "tlinalg.tsvd_s",
    "tlinalg.tubal_rank_s", "tlinalg.norms_s", "tlinalg.incoherence_s",
    "tlinalg.tprod_s",
    "synth.gen_s", "synth.score_s", "synth.trial_s", "synth.trial_s_p90",
    "imaging.io_s", "imaging.corrupt_s", "imaging.psnr_s", "imaging.psnr_db",
    "tensor3.io_s", "tensor3.io_mb",
    "trace.overhead_s",
)
REQUIRED_END_TO_END = (
    "setup_s", "op_s", "total_s", "ok_frac", "recovered_frac", "peak_rss_mb",
)

# spans each workload must produce, one per layer it runs through
EXPECTED_SPANS = {
    "recovery_n100": {"solver.solve", "prox.tsvt", "prox.svd", "prox.soft_threshold",
                      "transform.apply", "transform.apply_inverse"},
    "phase_grid": {"synth.phase_grid", "synth.trial", "synth.gen", "solver.solve",
                   "prox.svd", "tlinalg.tprod", "tlinalg.tubal_rank",
                   "tlinalg.svd_values", "transform.build"},
    "denoise_image": {"imaging.io", "imaging.denoise", "imaging.psnr",
                      "solver.solve", "prox.svd"},
    "diagnose": {"tensor3.io", "tlinalg.incoherence", "tlinalg.tsvd",
                 "tlinalg.svd_full", "tlinalg.svd_values", "tlinalg.norms",
                 "tlinalg.tubal_rank", "tensor3.norm"},
}


def run_bench(workload: str, trace: int, out: Path, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace),
           "--size", "tiny", "--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_run_emits_every_metric(workload, trace, tmp_path):
    done = run_bench(workload, trace, tmp_path / "record.json")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    required = REQUIRED_PER_LAYER if trace else REQUIRED_END_TO_END
    assert set(required) <= set(result["metrics"])
    for m in declared:
        got = result["metrics"][m["name"]]
        assert METRIC_NAME.fullmatch(m["name"])
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])

    record = json.loads((tmp_path / "record.json").read_text())
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "blas", "nproc", "blas_threads",
                "git_commit"):
        assert key in env
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if env["blas_threads"]["verified"]:
        assert env["blas_threads"]["value"] == 1


@pytest.mark.parametrize("workload", NAMES)
def test_self_times_partition_the_traced_op(workload, tmp_path):
    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS[workload]
    with tracer.installed():
        with tracer.root("bench.setup"):
            state = wl.setup(0, tmp_path, "tiny", 2)
        for i in range(2):
            with tracer.root("bench.op"):
                wl.op(state, i)
    m = tracing.layer_metrics(tracer, ops=2)
    layers = tracing.LAYERS + ("bench",)
    assert sum(m[f"{layer}.self_s"] for layer in layers) == pytest.approx(
        m["trace.op_s"], rel=1e-9
    )
    assert sum(m[f"setup.{layer}_s"] for layer in layers) == pytest.approx(
        m["setup.traced_s"], rel=1e-9
    )
    names = {span[0] for span in tracer.spans}
    assert EXPECTED_SPANS[workload] <= names


@pytest.mark.parametrize("workload", NAMES)
def test_tracing_does_not_change_outputs(workload, tmp_path):
    wl = workloads.WORKLOADS[workload]
    originals = (solver.solve, solver.tsvt_array, np.linalg.svd)
    state = wl.setup(0, tmp_path, "tiny", 1)
    plain = wl.check(state, 0, wl.op(state, 0))
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root("bench.op"):
        result = wl.op(state, 0)
    traced = wl.check(state, 0, result)
    assert plain.ok and traced.ok
    assert _fingerprint(plain.outputs) == _fingerprint(traced.outputs)
    assert len(tracer.spans) > 1
    assert (solver.solve, solver.tsvt_array, np.linalg.svd) == originals
    assert solver.tsvt_array is prox.tsvt_array


def _fingerprint(value):
    """Bit-exact comparison key for nested tuples of arrays and numbers."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_fingerprint(v) for v in value)
    return repr(value)


def _input_fingerprint(workload: str, state: dict):
    if workload == "recovery_n100":
        return state["x"].data.tobytes()
    if workload == "phase_grid":
        return tuple(base.seed for base in state["bases"].values())
    if workload == "denoise_image":
        return tuple(img["path"].read_bytes() for img in state["images"])
    return tuple(path.read_bytes() for path, _ in state["files"])


@pytest.mark.parametrize("workload", NAMES)
def test_second_seed_changes_inputs_and_passes(workload, tmp_path):
    wl = workloads.WORKLOADS[workload]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = wl.setup(0, tmp_path / "a", "tiny", 1)
    second = wl.setup(1, tmp_path / "b", "tiny", 1)
    assert _input_fingerprint(workload, first) != _input_fingerprint(workload, second)
    outcome = wl.check(second, 0, wl.op(second, 0))
    assert outcome.ok, outcome.detail


def test_same_seed_gives_same_inputs(tmp_path):
    wl = workloads.WORKLOADS["recovery_n100"]
    a = wl.setup(5, tmp_path, "tiny", 1)
    b = wl.setup(5, tmp_path, "tiny", 1)
    assert _input_fingerprint("recovery_n100", a) == _input_fingerprint("recovery_n100", b)


def test_fails_without_the_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's directory, the benchmark
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("diagnose", 0, tmp_path / "record.json", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
