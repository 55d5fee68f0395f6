"""Invertible mode-3 linear transforms.

A transform is an ``n3 x n3`` real matrix ``L`` applied to every tube
``a[i, j, :]`` of a tensor. Throughout this package ``L`` must be a scaled
orthogonal matrix,

    L' L = L L' = ell * I    for some ell > 0,

which makes the inverse analytic (``L' / ell``) and gives the scaling
identities the transform-domain norms rely on:

    <a, b>    = (1/ell) * <apply(a), apply(b)>
    ||a||_F   = (1/sqrt(ell)) * ||apply(a)||_F

Shipped constructors: the orthonormal DCT-II matrix (ell = 1), Haar-random
orthogonal matrices (ell = 1), and the unnormalized Walsh-Hadamard matrix
(ell = n3, exercising the ell != 1 bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

VALIDATE_TOL = 1e-10
"""Relative tolerance (w.r.t. ell) on the scaled-orthogonality residual."""


class TransformValidationError(ValueError):
    """Raised when a matrix is not a scaled orthogonal transform.

    Carries ``deviation``, the max-abs residual of ``L'L - ell*I`` / ``LL' - ell*I``.
    """

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation


@dataclass(frozen=True, eq=False)
class Transform:
    """A validated mode-3 transform: matrix ``L``, its inverse, and ``ell``."""

    matrix: np.ndarray
    inverse: np.ndarray
    ell: float

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def apply_array(self, arr: np.ndarray) -> np.ndarray:
        """Apply ``L`` along axis 2 of a raw ``(n1, n2, n3)`` array."""
        return np.tensordot(arr, self.matrix, axes=(2, 1))

    def apply_inverse_array(self, arr: np.ndarray) -> np.ndarray:
        return np.tensordot(arr, self.inverse, axes=(2, 1))

    def apply(self, a):
        """Transform-domain image of ``a``: every tube is replaced by ``L @ tube``."""
        from .tensor3 import Tensor3

        self._check_n3(a)
        return Tensor3(self.apply_array(a.data))

    def apply_inverse(self, a):
        """Inverse transform; ``apply_inverse(apply(a))`` recovers ``a``."""
        from .tensor3 import Tensor3

        self._check_n3(a)
        return Tensor3(self.apply_inverse_array(a.data))

    def _check_n3(self, a) -> None:
        if a.n3 != self.size:
            raise ValueError(
                f"tensor n3={a.n3} does not match transform size {self.size}"
            )

    def __repr__(self) -> str:
        return f"Transform(size={self.size}, ell={self.ell:g})"


def _build(matrix: np.ndarray) -> Transform:
    """Validate scaled orthogonality and assemble the Transform."""
    mat = np.array(matrix, dtype=np.float64, copy=True)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"transform matrix must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("transform matrix entries must be finite")
    n = mat.shape[0]
    gram = mat.T @ mat
    ell = float(np.mean(np.diag(gram)))
    if ell <= 0:
        raise TransformValidationError(
            f"estimated scaling constant ell={ell:g} is not positive", abs(ell)
        )
    eye = np.eye(n)
    dev = max(
        float(np.abs(gram - ell * eye).max()),
        float(np.abs(mat @ mat.T - ell * eye).max()),
    )
    if dev > VALIDATE_TOL * ell:
        raise TransformValidationError(
            "matrix is not a scaled orthogonal transform: "
            f"max deviation {dev:.6e} exceeds {VALIDATE_TOL:g} * ell (ell={ell:.6g})",
            dev,
        )
    inverse = mat.T / ell
    mat.flags.writeable = False
    inverse.flags.writeable = False
    return Transform(matrix=mat, inverse=inverse, ell=ell)


def validate(matrix) -> Transform:
    """Accept a square matrix as a transform iff it is scaled orthogonal.

    ``ell`` is estimated as the mean diagonal of ``L'L``; the inverse is the
    analytic ``L'/ell``. Rejection reports the max deviation found.
    """
    return _build(np.asarray(matrix, dtype=np.float64))


def make_identity(n3: int) -> Transform:
    """Identity transform (ell = 1); the n3 = 1 case reduces to matrices."""
    return _build(np.eye(n3))


def make_dct(n3: int) -> Transform:
    """Orthonormal DCT-II matrix (ell = 1).

    Row ``k``, column ``j`` (0-based) is ``c_k * cos(pi*k*(2j+1)/(2*n3))``
    with ``c_0 = sqrt(1/n3)`` and ``c_k = sqrt(2/n3)`` otherwise.
    """
    if n3 < 1:
        raise ValueError("n3 must be >= 1")
    k = np.arange(n3)[:, None]
    j = np.arange(n3)[None, :]
    coeff = np.full((n3, 1), np.sqrt(2.0 / n3))
    coeff[0, 0] = np.sqrt(1.0 / n3)
    mat = coeff * np.cos(np.pi * k * (2 * j + 1) / (2 * n3))
    return _build(mat)


def make_random_orthogonal(n3: int, seed: int) -> Transform:
    """Haar-distributed random orthogonal matrix (ell = 1).

    QR of an i.i.d. standard Gaussian matrix, with columns signed so the
    diagonal of R is positive; deterministic for a fixed seed.
    """
    if n3 < 1:
        raise ValueError("n3 must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n3, n3))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return _build(q * signs)


def make_scaled_hadamard(n3: int) -> Transform:
    """Sylvester-Hadamard +-1 matrix; ell = n3, inverse = L'/n3."""
    if n3 < 1 or n3 & (n3 - 1) != 0:
        raise ValueError(f"Hadamard transform needs a power-of-two size, got {n3}")
    return _build(scipy.linalg.hadamard(n3).astype(np.float64))


def from_spec(spec: str, n3: int) -> Transform:
    """Build a transform from a CLI spec string.

    Accepted forms: ``dct``, ``rom:<seed>``, ``hadamard``, ``file:<path>``
    (a dense CSV matrix routed through :func:`validate`).
    """
    if spec == "dct":
        return make_dct(n3)
    if spec == "hadamard":
        return make_scaled_hadamard(n3)
    if spec.startswith("rom:"):
        try:
            seed = int(spec[len("rom:"):])
        except ValueError:
            raise ValueError(
                f"bad transform spec {spec!r} (expected rom:<seed>, an integer seed)"
            ) from None
        return make_random_orthogonal(n3, seed)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        mat = np.loadtxt(path, delimiter=",", ndmin=2)
        t = validate(mat)
        if t.size != n3:
            raise ValueError(
                f"transform file {path} has size {t.size}, tensor needs n3={n3}"
            )
        return t
    raise ValueError(
        f"unknown transform spec {spec!r} "
        "(expected dct | rom:<seed> | hadamard | file:<path>)"
    )
