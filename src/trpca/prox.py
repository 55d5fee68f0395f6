"""Proximal operators: tensor singular value thresholding and soft thresholding.

The singular value threshold is applied at level ``tau`` to the
transform-domain singular values themselves. The ``1/ell`` factor of the
nuclear norm multiplies the whole slice-wise objective and cancels, so the
per-slice threshold is ``tau`` for every ``ell`` (the most error-prone
constant in this package; the perturbation tests exist to pin it).
"""

from __future__ import annotations

import numpy as np

from .tensor3 import Tensor3
from .transform import Transform

WARM_EXTRA = 8
"""Columns a warm T-SVT basis carries beyond the surviving rank."""


def soft_threshold(y: Tensor3, tau: float) -> Tensor3:
    """Entrywise shrinkage ``sign(y) * max(|y| - tau, 0)``.

    The minimizer of ``tau*||x||_1 + 0.5*||x - y||_F^2``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return Tensor3(soft_threshold_array(y.data, tau))


def soft_threshold_array(y: np.ndarray, tau: float) -> np.ndarray:
    # in place on one temporary: the solver calls this on full-size tensors
    out = np.abs(y)
    out -= tau
    np.maximum(out, 0.0, out=out)
    out *= np.sign(y)
    return out


def tsvt(y: Tensor3, tau: float, t: Transform) -> Tensor3:
    """Tensor singular value thresholding.

    Shrinks the transform-domain singular values of every frontal slice by
    ``tau`` and reconstructs; the unique minimizer of
    ``tau*nuclear_norm(x) + 0.5*||x - y||_F^2``.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if y.n3 != t.size:
        raise ValueError(f"tensor n3={y.n3} does not match transform size {t.size}")
    out, _, _, _ = tsvt_array(y.data, tau, t)
    return Tensor3(out)


def tsvt_array(
    y: np.ndarray, tau: float, t: Transform, basis: np.ndarray | None = None
) -> tuple[np.ndarray, float, np.ndarray | None, bool]:
    """Array-level T-SVT returning ``(result, nuclear_norm(result), basis, exact)``.

    The nuclear norm of the output comes for free from the shrunk singular
    values; the solver uses it for its objective trace.

    Without ``basis`` every transform-domain slice gets a full SVD and the
    result is exact. With a right basis ``V`` of shape ``(n3, n2, p)``, carried
    over from the previous call, each slice ``Ybar`` is projected instead:
    ``Q = qr(Ybar V)``, ``B = Q' Ybar``, ``svd(B)`` and ``U = Q U_B``, which
    costs ``O(n1 n2 p)`` per slice rather than a full SVD. This is the
    rank-predicted partial SVD of an inexact ALM, warm-started from the last
    subspace. It falls back to the full SVD (``exact=True``) when the
    smallest computed value of some slice is above ``tau``: that slice may
    have more values above ``tau`` than the basis can see.

    The returned basis holds the surviving right singular directions plus
    ``WARM_EXTRA`` more, as the ``basis`` of the next call. It is ``None``
    when that would be ``min(n1, n2)//2`` columns or more, where the full SVD
    is the cheaper choice.
    """
    bar = np.moveaxis(t.apply_array(y), 2, 0)
    q = None
    if basis is not None:
        q, _ = np.linalg.qr(bar @ basis)
        u, s, vh = np.linalg.svd(np.swapaxes(q, 1, 2) @ bar, full_matrices=False)
        if (s[:, -1] > tau).any():
            q = None
    exact = q is None
    if exact:
        u, s, vh = np.linalg.svd(bar, full_matrices=False)
    del bar
    s_shrunk = np.maximum(s - tau, 0.0)
    # skinny reconstruction: columns past the largest surviving value are dead
    k = int(np.count_nonzero(s_shrunk.max(axis=0) > 0))
    next_basis = None
    if k + WARM_EXTRA < min(y.shape[:2]) // 2:
        next_basis = np.swapaxes(vh[:, : k + WARM_EXTRA, :], 1, 2).copy()
    if k == 0:
        return np.zeros_like(y), 0.0, next_basis, exact
    u = u[:, :, :k] if exact else q @ u[:, :, :k]
    out_bar = (u * s_shrunk[:, None, :k]) @ vh[:, :k, :]
    out = t.apply_inverse_array(np.moveaxis(out_bar, 0, 2))
    return out, float(s_shrunk.sum()) / t.ell, next_basis, exact
