"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Every input is built by trpca's public generators from the workload seed, so
the same seed gives the same inputs. ``setup`` runs once per process and is
what ``setup_s`` times; ``op`` is the unit the closed loop repeats; ``check``
decides whether an op's output is correct and how many recovery trials it
scored. Each workload has a ``full`` size (the benchmark) and a ``tiny`` size
(the benchmark's own smoke tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from trpca import imaging, solver, synth, tensor3, tlinalg
from trpca import transform as transform_mod
from trpca.seeding import derive_seed

# trpca is called through module attributes (``solver.solve``, not a name
# imported from it) so that the tracer's patches see every call.

DIAGNOSE_NUCLEAR_TOL = 1e-10
"""Relative gap allowed between ``nuclear_norm`` and its t-SVD expression."""

DENOISE_MIN_GAIN_DB = 5.0
"""PSNR gain over the corrupted image that a denoise op must reach."""

GRID_MAX_VIOLATIONS = 1
GRID_MAX_DIFFERING = 1
"""Criterion-7 limits: monotonicity violations per transform, and cells in
which the two transforms' success fractions differ."""


@dataclass
class Outcome:
    """What one op's check found."""

    ok: bool
    detail: str
    recovered: int  # trials that met the workload's recovery criterion
    trials: int
    outputs: tuple  # arrays / values the tests compare bit for bit
    psnr_db: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_op_s: dict[str, float]  # seconds per op at each size, sets ops per run
    setup: Callable[[int, Path, str, int], Any]  # (seed, workdir, size, ops)
    op: Callable[[Any, int], Any]  # (state, op index) -> result
    check: Callable[[Any, int, Any], Outcome]  # (state, op index, result)

    def ops_per_run(self, seconds: float, size: str) -> int:
        """A fixed op count per run, so every commit does the same work."""
        return max(1, round(seconds / self.nominal_op_s[size]))


def _rel_err(estimate: tensor3.Tensor3, truth: tensor3.Tensor3) -> float:
    return tensor3.norm(estimate - truth) / tensor3.norm(truth)


# -- recovery_n100 ---------------------------------------------------------

RECOVERY_SIZES = {
    "full": {"n": 100, "r": 10, "m": 100_000},
    "tiny": {"n": 12, "r": 1, "m": 173},
}


def setup_recovery(seed: int, workdir: Path, size: str, ops: int) -> dict:
    """The paper's exact-recovery instance; seeds match ``synth-recover``."""
    p = RECOVERY_SIZES[size]
    n = p["n"]
    t = transform_mod.make_dct(n)
    low = synth.gen_low_rank(n, n, n, p["r"], t, seed=derive_seed(seed, "low-rank"))
    sparse = synth.gen_sparse(
        n, n, n, p["m"], low_rank_ref=low, seed=derive_seed(seed, "sparse")
    )
    return {"t": t, "low": low, "x": low + sparse, "r": p["r"]}


def op_recovery(state: dict, i: int):
    return solver.solve(state["x"], state["t"])


def check_recovery(state: dict, i: int, sol) -> Outcome:
    rel = _rel_err(sol.low_rank, state["low"])
    rank = tlinalg.tubal_rank(sol.low_rank, state["t"])
    recovered = rel <= synth.SUCCESS_REL_ERR
    return Outcome(
        ok=recovered and rank == state["r"],
        detail=f"rel_err_low_rank={rel:.3e} tubal_rank={rank} "
        f"iterations={sol.iterations}",
        recovered=int(recovered),
        trials=1,
        outputs=(sol.low_rank.data, sol.sparse.data),
    )


# -- phase_grid ------------------------------------------------------------

GRID_SIZES = {
    "full": {"n": 30, "n3": 15, "ratios": (0.05, 0.15, 0.25, 0.35, 0.45), "trials": 3},
    "tiny": {"n": 10, "n3": 4, "ratios": (0.05, 0.45), "trials": 1},
}
GRID_TRANSFORMS = ("dct", "rom:11")


def setup_grid(seed: int, workdir: Path, size: str, ops: int) -> dict:
    """Criterion 7's grid with the workload seed as the grid's root seed."""
    p = GRID_SIZES[size]
    bases = {
        spec: synth.RecoveryTrialConfig(
            n1=p["n"], n2=p["n"], n3=p["n3"], r=1, m=0, transform_spec=spec, seed=seed
        )
        for spec in GRID_TRANSFORMS
    }
    return {"bases": bases, "ratios": p["ratios"], "trials": p["trials"]}


def op_grid(state: dict, i: int) -> dict:
    ratios = state["ratios"]
    return {
        spec: synth.run_phase_grid(base, ratios, ratios, state["trials"])
        for spec, base in state["bases"].items()
    }


def _monotone_violations(success: np.ndarray) -> int:
    return int(np.sum(np.diff(success, axis=1) > 1e-12)) + int(
        np.sum(np.diff(success, axis=0) > 1e-12)
    )


def check_grid(state: dict, i: int, grids: dict) -> Outcome:
    dct, rom = (grids[spec].success for spec in GRID_TRANSFORMS)
    violations = [_monotone_violations(dct), _monotone_violations(rom)]
    differing = int(np.sum(dct != rom))
    trials = state["trials"]
    recovered = sum(int(round(g.success.sum() * trials)) for g in grids.values())
    return Outcome(
        ok=max(violations) <= GRID_MAX_VIOLATIONS and differing <= GRID_MAX_DIFFERING,
        detail=f"violations={violations} differing_cells={differing} "
        f"recovered={recovered}",
        recovered=recovered,
        trials=sum(g.success.size * trials for g in grids.values()),
        outputs=(dct, rom),
    )


# -- denoise_image ---------------------------------------------------------

IMAGE_SIZES = {"full": {"height": 256, "width": 256}, "tiny": {"height": 32, "width": 32}}
IMAGE_CORRUPT_FRACTION = 0.1


def setup_image(seed: int, workdir: Path, size: str, ops: int) -> dict:
    """One corrupted image per op, saved as PPM.

    The solver's iteration count varies by about 10% from image to image, so
    each op of a run gets its own image and the run's median averages over
    them.
    """
    p = IMAGE_SIZES[size]
    images = []
    for k in range(ops):
        clean = imaging.synthetic_low_rank_image(
            p["height"], p["width"], seed=derive_seed(seed, "image", k)
        )
        corrupted, _ = imaging.corrupt(
            clean, IMAGE_CORRUPT_FRACTION, seed=derive_seed(seed, "corrupt", k)
        )
        path = workdir / f"corrupted-{k}.ppm"
        imaging.save_image(corrupted, path)
        before = imaging.psnr(imaging.load_image(path), clean)
        images.append({"clean": clean, "path": path, "psnr_before": before})
    return {"t": transform_mod.make_dct(3), "images": images, "workdir": workdir}


def op_image(state: dict, i: int) -> tuple:
    image = state["images"][i % len(state["images"])]
    corrupted = imaging.load_image(image["path"])
    recovered, sol = imaging.denoise(corrupted, state["t"])
    imaging.save_image(recovered, state["workdir"] / f"recovered-{i}.ppm")
    return recovered, sol, imaging.psnr(recovered, image["clean"])


def check_image(state: dict, i: int, result: tuple) -> Outcome:
    recovered, sol, after = result
    before = state["images"][i % len(state["images"])]["psnr_before"]
    ok = after >= before + DENOISE_MIN_GAIN_DB
    return Outcome(
        ok=ok,
        detail=f"psnr {before:.2f} dB -> {after:.2f} dB iterations={sol.iterations}",
        recovered=int(ok),
        trials=1,
        outputs=(recovered.tensor.data, sol.low_rank.data, sol.sparse.data),
        psnr_db=after,
    )


# -- diagnose --------------------------------------------------------------

DIAGNOSE_SIZES = {
    "full": {"n": 100, "n3": 64, "r": 10},
    "tiny": {"n": 12, "n3": 8, "r": 2},
}


def setup_diagnose(seed: int, workdir: Path, size: str, ops: int) -> dict:
    """A rank-r tensor file per transform: DCT, seeded random, Hadamard."""
    p = DIAGNOSE_SIZES[size]
    files = []
    for spec in ("dct", f"rom:{seed}", "hadamard"):
        t = transform_mod.from_spec(spec, p["n3"])
        a = synth.gen_low_rank(
            p["n"], p["n"], p["n3"], p["r"], t, seed=derive_seed(seed, "diagnose", spec)
        )
        path = workdir / f"{spec.replace(':', '-')}.tnsr"
        tensor3.write_tensor(a, path)
        files.append((path, t))
    return {"files": files, "r": p["r"]}


def op_diagnose(state: dict, i: int) -> list[dict]:
    """One pass of ``trpca diagnose`` over every file."""
    out = []
    for path, t in state["files"]:
        x = tensor3.load_tensor(path)
        inc = tlinalg.incoherence(x, t)
        out.append(
            {
                "x": x,
                "t": t,
                "tubal_rank": tlinalg.tubal_rank(x, t),
                "spectral_norm": tlinalg.spectral_norm(x, t),
                "nuclear_norm": tlinalg.nuclear_norm(x, t),
                "frobenius_norm": tensor3.norm(x),
                "mu": (inc.mu1, inc.mu2, inc.mu3, inc.mu),
            }
        )
    return out


def check_diagnose(state: dict, i: int, reports: list[dict]) -> Outcome:
    ranks_ok, nuclear_ok, gaps = 0, True, []
    for rep in reports:
        ranks_ok += rep["tubal_rank"] == state["r"]
        oracle = tlinalg.singular_tube_inner(tlinalg.tsvd(rep["x"], rep["t"]))
        gap = abs(rep["nuclear_norm"] - oracle) / max(1.0, abs(oracle))
        gaps.append(gap)
        nuclear_ok &= math.isfinite(gap) and gap <= DIAGNOSE_NUCLEAR_TOL
    return Outcome(
        ok=ranks_ok == len(reports) and nuclear_ok,
        detail=f"ranks={[r['tubal_rank'] for r in reports]} "
        f"max_nuclear_gap={max(gaps):.1e}",
        recovered=ranks_ok,
        trials=len(reports),
        outputs=tuple(
            (r["tubal_rank"], r["spectral_norm"], r["nuclear_norm"],
             r["frobenius_norm"], r["mu"])
            for r in reports
        ),
    )


# Why each workload is here: the "why" fields of BENCHMARK.json and README.md.
# The nominal op seconds are the seed commit's op times; they size a run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("recovery_n100", {"full": 7.3, "tiny": 0.05},
                 setup_recovery, op_recovery, check_recovery),
        Workload("phase_grid", {"full": 27.3, "tiny": 0.1},
                 setup_grid, op_grid, check_grid),
        Workload("denoise_image", {"full": 3.6, "tiny": 0.05},
                 setup_image, op_image, check_image),
        Workload("diagnose", {"full": 0.29, "tiny": 0.01},
                 setup_diagnose, op_diagnose, check_diagnose),
    )
}
