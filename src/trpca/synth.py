"""Synthetic recovery experiments: data generation, single trials, phase grids."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import transform as transform_mod
from .seeding import derive_seed
from .solver import SolverConfig, solve
from .tensor3 import Tensor3, from_flat, norm, to_flat, zeros
from .tlinalg import nuclear_norm, tprod, ttranspose, tubal_rank
from .transform import Transform

SUCCESS_REL_ERR = 1e-3
"""Relative low-rank error at or below which a trial counts as recovered."""

SUPPORT_TOL = 1e-8
"""Entries above this fraction of the sparse max-abs count as support."""

SIGN_MODELS = ("random_signs", "coherent_signs")


@dataclass(frozen=True)
class RecoveryTrialConfig:
    n1: int
    n2: int
    n3: int
    r: int
    m: int
    sign_model: str = "random_signs"
    transform_spec: str = "dct"
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.r <= min(self.n1, self.n2):
            raise ValueError(f"rank r={self.r} out of range for {self.n1}x{self.n2}")
        if not 0 <= self.m <= self.n1 * self.n2 * self.n3:
            raise ValueError(f"support size m={self.m} out of range")
        if self.sign_model not in SIGN_MODELS:
            raise ValueError(f"unknown sign model {self.sign_model!r}")


@dataclass
class RecoveryTrialReport:
    config: RecoveryTrialConfig
    rank_est: int
    sparse_support: int
    rel_err_low_rank: float
    rel_err_sparse: float
    success: bool
    iterations: int
    converged: bool
    wall_seconds: float
    certified_failure: bool = False


@dataclass
class PhaseGrid:
    """Success fractions over a (rank ratio, sparsity ratio) grid.

    ``certified`` counts, per cell, the trials whose solve stopped on a
    certificate of failure (see ``run_recovery_trial``).
    ``certified_disagreements`` counts the certified trials whose error
    still met ``SUCCESS_REL_ERR``, where the two rules disagree.
    """

    rank_ratios: tuple[float, ...]
    sparsity_ratios: tuple[float, ...]
    trials_per_cell: int
    success: np.ndarray  # shape (len(rank_ratios), len(sparsity_ratios))
    certified: np.ndarray | None = None  # same shape, trial counts
    certified_disagreements: int = 0

    def __post_init__(self):
        self.success = np.asarray(self.success, dtype=np.float64)
        expected = (len(self.rank_ratios), len(self.sparsity_ratios))
        if self.success.shape != expected:
            raise ValueError(
                f"success matrix shape {self.success.shape} != {expected}"
            )
        if ((self.success < 0) | (self.success > 1)).any():
            raise ValueError("success fractions must lie in [0, 1]")
        if self.certified is None:
            self.certified = np.zeros(expected, dtype=np.int64)
        self.certified = np.asarray(self.certified, dtype=np.int64)
        if self.certified.shape != expected:
            raise ValueError(
                f"certified matrix shape {self.certified.shape} != {expected}"
            )


def gen_low_rank(
    n1: int, n2: int, n3: int, r: int, t: Transform, seed: int
) -> Tensor3:
    """Tensor of tubal rank ``r``: a t-product of two Gaussian factor tensors.

    Factor entries are N(0, 1/max(n1, n2)); the product has rank ``r``
    with probability 1. Deterministic per seed.
    """
    if not 0 <= r <= min(n1, n2):
        raise ValueError(f"rank r={r} out of range for {n1}x{n2}")
    if r == 0:
        return zeros(n1, n2, n3)
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(max(n1, n2))
    p = Tensor3(rng.standard_normal((n1, r, n3)) * scale)
    q = Tensor3(rng.standard_normal((n2, r, n3)) * scale)
    return tprod(p, ttranspose(q), t)


def gen_sparse(
    n1: int,
    n2: int,
    n3: int,
    m: int,
    sign_model: str = "random_signs",
    low_rank_ref: Tensor3 | None = None,
    seed: int = 0,
) -> Tensor3:
    """Sparse +-1 tensor on a uniform support of exactly ``m`` entries.

    ``random_signs`` flips a fair coin per entry; ``coherent_signs`` copies
    the sign of ``low_rank_ref`` on the support. Support positions are drawn
    without replacement via a seeded shuffle of slice-major linear indices.
    """
    total = n1 * n2 * n3
    if not 0 <= m <= total:
        raise ValueError(f"support size m={m} out of range for {total} entries")
    if sign_model not in SIGN_MODELS:
        raise ValueError(f"unknown sign model {sign_model!r}")
    if sign_model == "coherent_signs" and low_rank_ref is None:
        raise ValueError("coherent_signs requires low_rank_ref")
    rng = np.random.default_rng(seed)
    support = rng.permutation(total)[:m]
    flat = np.zeros(total)
    if sign_model == "random_signs":
        flat[support] = rng.integers(0, 2, size=m) * 2.0 - 1.0
    else:
        flat[support] = np.sign(to_flat(low_rank_ref)[support])
    return from_flat(flat, (n1, n2, n3))


def sparse_support_size(t: Tensor3, tol: float = SUPPORT_TOL) -> int:
    """Count entries above ``tol`` times the max-abs entry."""
    peak = float(np.abs(t.data).max())
    if peak == 0.0:
        return 0
    return int(np.count_nonzero(np.abs(t.data) > tol * peak))


def run_recovery_trial(
    cfg: RecoveryTrialConfig, solver_cfg: SolverConfig | None = None
) -> RecoveryTrialReport:
    """Generate a low-rank + sparse instance, solve it, and score recovery.

    The truth's objective ``f0 = nuclear_norm(low0) + lam*||sparse0||_1``
    (``lam`` as ``solve`` resolves it) is passed to ``solve`` as its
    ``floor``. A feasible iterate whose objective falls below
    ``(1 - 1e-6) * f0`` proves that the truth is not a minimizer, so the
    solve stops there and the trial fails with ``certified_failure=True``;
    its error, rank and iteration count are those of the stopped iterate.
    Otherwise a trial succeeds when its relative low-rank error is at most
    ``SUCCESS_REL_ERR``.
    """
    t = transform_mod.from_spec(cfg.transform_spec, cfg.n3)
    low0 = gen_low_rank(
        cfg.n1, cfg.n2, cfg.n3, cfg.r, t, seed=derive_seed(cfg.seed, "low-rank")
    )
    sparse0 = gen_sparse(
        cfg.n1,
        cfg.n2,
        cfg.n3,
        cfg.m,
        sign_model=cfg.sign_model,
        low_rank_ref=low0,
        seed=derive_seed(cfg.seed, "sparse"),
    )
    x = low0 + sparse0
    lam = (solver_cfg or SolverConfig()).lam_for(cfg.n1, cfg.n2, t)
    f0 = nuclear_norm(low0, t) + lam * norm(sparse0, "l1")

    start = time.perf_counter()
    sol = solve(x, t, solver_cfg, floor=f0)
    wall = time.perf_counter() - start

    low_scale = norm(low0, "frobenius")
    sparse_scale = norm(sparse0, "frobenius")
    rel_low = (
        norm(sol.low_rank - low0, "frobenius") / low_scale
        if low_scale > 0
        else norm(sol.low_rank, "frobenius")
    )
    rel_sparse = (
        norm(sol.sparse - sparse0, "frobenius") / sparse_scale
        if sparse_scale > 0
        else norm(sol.sparse, "frobenius")
    )
    return RecoveryTrialReport(
        config=cfg,
        rank_est=tubal_rank(sol.low_rank, t),
        sparse_support=sparse_support_size(sol.sparse),
        rel_err_low_rank=rel_low,
        rel_err_sparse=rel_sparse,
        success=not sol.certified_failure and rel_low <= SUCCESS_REL_ERR,
        iterations=sol.iterations,
        converged=sol.converged,
        wall_seconds=wall,
        certified_failure=sol.certified_failure,
    )


def run_phase_grid(
    base: RecoveryTrialConfig,
    rank_ratios,
    sparsity_ratios,
    trials_per_cell: int,
    solver_cfg: SolverConfig | None = None,
) -> PhaseGrid:
    """Success fraction per (rank ratio, sparsity ratio) cell.

    Each cell runs ``trials_per_cell`` independent trials; trial seeds are
    derived from the base seed, the cell's ratios, and the trial index, so
    grids over different transforms see identical generator streams.
    """
    rank_ratios = tuple(float(v) for v in rank_ratios)
    sparsity_ratios = tuple(float(v) for v in sparsity_ratios)
    if not rank_ratios or not sparsity_ratios:
        raise ValueError("ratio lists must be nonempty")
    for v in rank_ratios + sparsity_ratios:
        if not 0 < v < 1:
            raise ValueError(f"ratios must lie in (0, 1), got {v}")
    if trials_per_cell < 1:
        raise ValueError("trials_per_cell must be >= 1")

    total = base.n1 * base.n2 * base.n3
    success = np.zeros((len(rank_ratios), len(sparsity_ratios)))
    certified = np.zeros(success.shape, dtype=np.int64)
    disagreements = 0
    for i, rho_r in enumerate(rank_ratios):
        r = max(1, round(rho_r * min(base.n1, base.n2)))
        for j, rho_s in enumerate(sparsity_ratios):
            m = round(rho_s * total)
            hits = 0
            for trial in range(trials_per_cell):
                cfg = RecoveryTrialConfig(
                    n1=base.n1,
                    n2=base.n2,
                    n3=base.n3,
                    r=r,
                    m=m,
                    sign_model=base.sign_model,
                    transform_spec=base.transform_spec,
                    seed=derive_seed(
                        base.seed, "phase-grid", f"{rho_r:.6g}", f"{rho_s:.6g}", trial
                    ),
                )
                rep = run_recovery_trial(cfg, solver_cfg)
                hits += rep.success
                if rep.certified_failure:
                    certified[i, j] += 1
                    disagreements += rep.rel_err_low_rank <= SUCCESS_REL_ERR
            success[i, j] = hits / trials_per_cell
    return PhaseGrid(
        rank_ratios=rank_ratios,
        sparsity_ratios=sparsity_ratios,
        trials_per_cell=trials_per_cell,
        success=success,
        certified=certified,
        certified_disagreements=disagreements,
    )
