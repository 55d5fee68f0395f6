"""t-linear algebra under a mode-3 transform.

Every operation here works slice-wise in the transform domain: transform the
operands along mode 3, act on each frontal slice with ordinary matrix algebra,
and map back. The block-diagonal matrix whose blocks are the transform-domain
slices is never materialized outside of test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor3 import Tensor3, inner, norm
from .transform import Transform

RANK_TOL = 1e-8
"""Default relative threshold (against the largest singular tube) for ranks."""


@dataclass(frozen=True)
class TSvdFactors:
    """The t-SVD triple: ``a = u * s * v'`` under ``transform``.

    ``s`` is f-diagonal (every transform-domain slice diagonal, nonnegative,
    nonincreasing); ``u`` and ``v`` have orthonormal columns under the
    t-product. Skinny factors keep ``k = max(tubal rank, 1)`` columns, full
    factors keep ``k = min(n1, n2)``.
    """

    u: Tensor3
    s: Tensor3
    v: Tensor3
    transform: Transform
    skinny: bool

    @property
    def k(self) -> int:
        return self.s.n1


@dataclass(frozen=True)
class IncoherenceReport:
    """Spread diagnostics of the singular factors (smaller = more spread)."""

    mu1: float
    mu2: float
    mu3: float
    mu: float
    rank: int


def _bar(a: Tensor3, t: Transform) -> np.ndarray:
    """Transform-domain slices as a batched ``(n3, n1, n2)`` array."""
    if a.n3 != t.size:
        raise ValueError(f"tensor n3={a.n3} does not match transform size {t.size}")
    return np.moveaxis(t.apply_array(a.data), 2, 0)


def _unbar(slices: np.ndarray, t: Transform) -> Tensor3:
    return Tensor3(t.apply_inverse_array(np.moveaxis(slices, 0, 2)))


def tprod(a: Tensor3, b: Tensor3, t: Transform) -> Tensor3:
    """t-product: frontal-slice-wise matrix product in the transform domain."""
    if a.n2 != b.n1:
        raise ValueError(f"inner dimension mismatch: {a.dims} x {b.dims}")
    if a.n3 != b.n3:
        raise ValueError(f"n3 mismatch: {a.dims} x {b.dims}")
    return _unbar(_bar(a, t) @ _bar(b, t), t)


def ttranspose(a: Tensor3, t: Transform | None = None) -> Tensor3:
    """Tensor transpose: each transform-domain slice is transposed.

    For a real mode-3 transform this commutes with the transform itself, so
    the result is simply the spatial slice-wise transpose; ``t`` is accepted
    for contract symmetry and does not change the value.
    """
    return Tensor3(np.transpose(a.data, (1, 0, 2)))


def identity_tensor(n: int, t: Transform) -> Tensor3:
    """The t-product identity: every transform-domain slice is ``eye(n)``."""
    slices = np.broadcast_to(np.eye(n), (t.size, n, n))
    return _unbar(np.array(slices), t)


def _batched_svd(slices: np.ndarray):
    """Batched thin SVD with the failing slice index attached on error."""
    try:
        return np.linalg.svd(slices, full_matrices=False)
    except np.linalg.LinAlgError:
        for i in range(slices.shape[0]):
            try:
                np.linalg.svd(slices[i], full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"SVD failed on transform-domain slice {i}"
                ) from exc
        raise


def _singular_values(a: Tensor3, t: Transform) -> np.ndarray:
    """Per-slice singular values of the transform-domain slices, ``(n3, k)``."""
    return np.linalg.svd(_bar(a, t), compute_uv=False)


def _rank_from_values(s: np.ndarray, tol: float) -> int:
    """Count singular tubes above ``tol`` relative to the largest tube.

    The values are divided by the largest one first, so the squares inside
    the tube norms neither overflow nor underflow at extreme magnitudes.
    """
    peak = s.max() if s.size else 0.0
    if peak == 0.0:
        return 0
    tube_norms = np.linalg.norm(s / peak, axis=0)
    return int(np.count_nonzero(tube_norms > tol * tube_norms[0]))


def tsvd(a: Tensor3, t: Transform, skinny: bool = True) -> TSvdFactors:
    """t-SVD via per-slice matrix SVD in the transform domain.

    Singular values are nonincreasing within each slice. Factors are
    canonicalized so the largest-magnitude entry of every left singular
    vector is positive; skinny factors are truncated to the tubal rank
    (clamped to 1 so the factor tensors stay nonempty).
    """
    bar = _bar(a, t)
    u, s, vh = _batched_svd(bar)
    # sign canonicalization: flip column pairs so each u column's peak entry > 0
    peak = np.take_along_axis(
        u, np.abs(u).argmax(axis=1, keepdims=True), axis=1
    )[:, 0, :]
    flip = np.where(peak < 0, -1.0, 1.0)
    u = u * flip[:, None, :]
    vh = vh * flip[:, :, None]
    if skinny:
        k = max(_rank_from_values(s, RANK_TOL), 1)
        u, s, vh = u[:, :, :k], s[:, :k], vh[:, :k, :]
    k = s.shape[1]
    sbar = np.zeros((s.shape[0], k, k))
    step = np.arange(k)
    sbar[:, step, step] = s
    return TSvdFactors(
        u=_unbar(u, t),
        s=_unbar(sbar, t),
        v=_unbar(np.transpose(vh, (0, 2, 1)), t),
        transform=t,
        skinny=skinny,
    )


def tubal_rank(a: Tensor3, t: Transform, tol: float = RANK_TOL) -> int:
    """Number of singular tubes above ``tol`` relative to the largest tube."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return _rank_from_values(_singular_values(a, t), tol)


def spectral_norm(a: Tensor3, t: Transform) -> float:
    """Largest singular value over all transform-domain slices."""
    return float(_singular_values(a, t).max())


def nuclear_norm(a: Tensor3, t: Transform) -> float:
    """Sum of all transform-domain singular values, scaled by ``1/ell``."""
    return float(_singular_values(a, t).sum()) / t.ell


def column_basis(i: int, n: int, t: Transform) -> Tensor3:
    """Basis tensor of size ``n x 1 x n3``: tube ``(i, 0, :)`` of its
    transform-domain image is all ones (0-based ``i``)."""
    if not 0 <= i < n:
        raise IndexError(f"column basis index {i} out of range for n={n}")
    bar = np.zeros((n, 1, t.size))
    bar[i, 0, :] = 1.0
    return Tensor3(t.apply_inverse_array(bar))


def tube_basis(k: int, t: Transform) -> Tensor3:
    """Basis tensor of size ``1 x 1 x n3``: entry ``(0, 0, k)`` of its
    transform-domain image is one (0-based ``k``)."""
    if not 0 <= k < t.size:
        raise IndexError(f"tube basis index {k} out of range for n3={t.size}")
    bar = np.zeros((1, 1, t.size))
    bar[0, 0, k] = 1.0
    return Tensor3(t.apply_inverse_array(bar))


def incoherence(a: Tensor3, t: Transform) -> IncoherenceReport:
    """Incoherence diagnostics of the skinny t-SVD of ``a``.

    mu1 scales the worst column-basis energy of the left factor,
    ``(n1/r) * max_{i,k} ||u' * e_i * L(tube_k)||_F^2``; mu2 is the analogue
    for the right factor; mu3 scales the peak entry of ``u * v'``,
    ``(n1*n2*ell/r) * ||u * v'||_inf^2``. ``mu`` is the max of the three.

    In the transform domain the (i, k) norm collapses to
    ``(1/ell) * sum_s L[s,k]^2 * ||ubar[s][i, :]||^2``, which is what is
    evaluated here; tests cross-check against the literal t-product form.
    """
    if norm(a, "frobenius") == 0.0:
        raise ValueError("incoherence is undefined for the zero tensor")
    n1, n2 = a.n1, a.n2
    factors = tsvd(a, t, skinny=True)
    r = factors.k
    weights = t.matrix**2  # weights[s, k] = L[s, k]^2

    def basis_energy(factor: Tensor3, n: int) -> float:
        fbar = _bar(factor, t)  # (n3, n, r)
        row_energy = np.sum(fbar**2, axis=2)  # (n3, n)
        return float((row_energy.T @ weights).max()) / t.ell

    mu1 = n1 / r * basis_energy(factors.u, n1)
    mu2 = n2 / r * basis_energy(factors.v, n2)
    uvt = tprod(factors.u, ttranspose(factors.v), t)
    mu3 = n1 * n2 * t.ell / r * float(np.abs(uvt.data).max()) ** 2
    return IncoherenceReport(mu1=mu1, mu2=mu2, mu3=mu3, mu=max(mu1, mu2, mu3), rank=r)


def singular_tube_inner(factors: TSvdFactors) -> float:
    """``<s, identity>`` for a t-SVD, the t-SVD expression of the nuclear norm."""
    return inner(factors.s, identity_tensor(factors.k, factors.transform))
