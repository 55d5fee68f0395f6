"""ADMM solver for the low-tubal-rank plus sparse decomposition.

Solves ``min nuclear_norm(low_rank) + lam * l1(sparse)`` subject to
``low_rank + sparse = x`` by alternating the tensor SVT step, entrywise soft
thresholding, and a dual ascent step under a geometrically growing penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .prox import soft_threshold_array, tsvt_array
from .tensor3 import Tensor3
from .tlinalg import spectral_norm
from .transform import Transform

ZERO_INPUT_MU0 = 1e-3
"""Starting penalty for an all-zero input, which has no spectral scale."""

FLOOR_MARGIN = 1e-6
"""Relative margin below ``floor`` that a feasible objective must reach
before ``solve`` stops on it; it absorbs the round-off of both values."""


class NonFiniteIterateError(RuntimeError):
    """An ADMM iterate went non-finite; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration}")
        self.iteration = iteration


@dataclass
class SolverConfig:
    """ADMM schedule.

    ``lam=None`` selects ``1/sqrt(max(n1, n2) * ell)``. ``mu0=None`` starts
    the penalty at ``1.25 / spectral_norm(x, t)``, the data-scaled start of
    the inexact ALM (``ZERO_INPUT_MU0`` for an all-zero input), capped at
    ``mu_max``.
    """

    lam: float | None = None
    mu0: float | None = None
    rho: float = 1.1
    mu_max: float = 1e10
    tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self):
        for name in ("lam", "mu0", "rho", "mu_max", "tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lam must be positive (or None for auto)")
        if self.mu_max <= 0:
            raise ValueError("mu_max must be positive")
        if self.mu0 is not None and not 0 < self.mu0 <= self.mu_max:
            raise ValueError("mu0 must lie in (0, mu_max] (or be None for auto)")
        if self.rho < 1:
            raise ValueError("rho must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def lam_for(self, n1: int, n2: int, t: Transform) -> float:
        """The sparsity weight a solve of an ``n1 x n2 x n3`` tensor uses."""
        return self.lam if self.lam is not None else default_lambda(n1, n2, t)


@dataclass
class TraceRow:
    """One ADMM iteration: residual inf-norms, penalty, and objective value."""

    iteration: int
    primal_inf: float
    dl_inf: float
    ds_inf: float
    mu: float
    objective: float


@dataclass
class TrpcaSolution:
    low_rank: Tensor3
    sparse: Tensor3
    iterations: int
    converged: bool
    trace: list[TraceRow] = field(repr=False)
    certified_failure: bool = False


def default_lambda(n1: int, n2: int, t: Transform) -> float:
    """The parameter-free sparsity weight ``1/sqrt(max(n1, n2) * ell)``."""
    if n1 < 1 or n2 < 1:
        raise ValueError("dims must be positive")
    return 1.0 / math.sqrt(max(n1, n2) * t.ell)


def solve(
    x: Tensor3,
    t: Transform,
    cfg: SolverConfig | None = None,
    floor: float | None = None,
) -> TrpcaSolution:
    """Recover the low-tubal-rank and sparse parts of ``x``.

    Starting from zero tensors, each iteration runs

        low_rank <- tsvt(x - sparse + dual/mu, 1/mu)
        sparse   <- soft_threshold(x - low_rank + dual/mu, lam/mu)
        dual     <- dual + mu * (low_rank + sparse - x)
        mu       <- min(rho * mu, mu_max)

    and stops when the largest of the two iterate changes and the primal
    residual (all in the entrywise max norm) drops to ``cfg.tol``, or after
    ``cfg.max_iters`` iterations (``converged=False``, not an error).

    The T-SVT is warm-started: each call projects onto the right singular
    subspace the previous call handed back (see ``prox.tsvt_array``), and
    only the first iteration runs a full SVD of every slice. When the stop
    test passes after a warm T-SVT, one exact T-SVT of the same argument
    checks it. If the two differ by more than ``cfg.tol``, the exact call's
    subspace replaces the basis and the iteration goes on, so
    ``converged=True`` always marks a fixed point of the exact iteration.

    ``floor`` is an optional upper bound on the optimal value, such as the
    objective of a known feasible pair. With it, each iteration also scores
    the feasible pair ``(low_rank, x - low_rank)``: its objective is
    ``nuclear_norm(low_rank) + lam*||x - low_rank||_1``. When that drops
    below ``(1 - FLOOR_MARGIN) * floor`` (``FLOOR_MARGIN = 1e-6``), no
    minimizer attains ``floor``, and ``solve`` stops at that iterate with
    ``converged=False`` and ``certified_failure=True``. The test only reads
    the iterates, so a run it never stops is bit for bit the run without a
    floor. Without ``floor`` the extra sum is not computed.
    """
    if cfg is None:
        cfg = SolverConfig()
    if x.n3 != t.size:
        raise ValueError(f"tensor n3={x.n3} does not match transform size {t.size}")
    lam = cfg.lam_for(x.n1, x.n2, t)
    if cfg.mu0 is not None:
        mu = cfg.mu0
    else:
        scale = spectral_norm(x, t)
        mu = min(1.25 / scale if scale > 0 else ZERO_INPUT_MU0, cfg.mu_max)

    data = x.data
    low = np.zeros_like(data)
    sparse = np.zeros_like(data)
    dual = np.zeros_like(data)
    basis = None
    trace: list[TraceRow] = []
    converged = False
    certified_failure = False
    iteration = 0

    for iteration in range(1, cfg.max_iters + 1):
        arg = data - sparse + dual / mu
        low_new, tnn, basis, exact = tsvt_array(arg, 1.0 / mu, t, basis)
        sparse_new = soft_threshold_array(data - low_new + dual / mu, lam / mu)
        if not (np.isfinite(low_new).all() and np.isfinite(sparse_new).all()):
            raise NonFiniteIterateError(iteration)
        residual = low_new + sparse_new - data
        # dual ascent on the constraint x - low - sparse, matching the +dual/mu
        # prox arguments above (the opposite sign diverges)
        dual -= mu * residual

        primal = float(np.abs(residual).max())
        dl = float(np.abs(low_new - low).max())
        ds = float(np.abs(sparse_new - sparse).max())
        objective = tnn + lam * float(np.abs(sparse_new).sum())
        trace.append(TraceRow(iteration, primal, dl, ds, mu, objective))

        low, sparse = low_new, sparse_new
        if floor is not None:
            feasible = tnn + lam * float(np.abs(data - low_new).sum())
            if feasible < (1.0 - FLOOR_MARGIN) * floor:
                certified_failure = True
                break
        if max(primal, dl, ds) <= cfg.tol:
            if exact:
                converged = True
                break
            check, _, basis, _ = tsvt_array(arg, 1.0 / mu, t)
            if float(np.abs(check - low_new).max()) <= cfg.tol:
                converged = True
                break
        mu = min(cfg.rho * mu, cfg.mu_max)

    return TrpcaSolution(
        low_rank=Tensor3(low),
        sparse=Tensor3(sparse),
        iterations=iteration,
        converged=converged,
        trace=trace,
        certified_failure=certified_failure,
    )
