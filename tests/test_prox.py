import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trpca import (
    Tensor3,
    make_dct,
    make_scaled_hadamard,
    norm,
    nuclear_norm,
    soft_threshold,
    spectral_norm,
    tsvt,
)
from trpca.prox import tsvt_array

from conftest import rand_tensor


def slice_svt_oracle(y: Tensor3, tau: float, t) -> Tensor3:
    """Independent per-slice matrix SVT in the transform domain."""
    bar = t.apply(y)
    out = []
    for i in range(y.n3):
        u, s, vh = np.linalg.svd(bar.data[:, :, i], full_matrices=False)
        out.append(u @ np.diag(np.maximum(s - tau, 0.0)) @ vh)
    return t.apply_inverse(Tensor3(np.stack(out, axis=2)))


def objective(x: Tensor3, y: Tensor3, tau: float, t) -> float:
    return tau * nuclear_norm(x, t) + 0.5 * norm(x - y) ** 2


def golden_section_scalar_prox(y: float, tau: float) -> float:
    """Minimize tau*|x| + 0.5*(x - y)^2 by golden-section search."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -abs(y) - 1.0, abs(y) + 1.0
    f = lambda x: tau * abs(x) + 0.5 * (x - y) ** 2
    for _ in range(200):
        d = phi * (hi - lo)
        x1, x2 = hi - d, lo + d
        if f(x1) < f(x2):
            hi = x2
        else:
            lo = x1
    return 0.5 * (lo + hi)


class TestSoftThreshold:
    def test_small_entries_vanish(self, rng):
        y = Tensor3(rng.uniform(-0.5, 0.5, (3, 3, 3)))
        assert norm(soft_threshold(y, 0.5), "linf") == 0.0

    def test_closed_form_values(self):
        y = Tensor3(np.array([3.0, -0.5]).reshape(2, 1, 1))
        out = soft_threshold(y, 1.0)
        assert out.data[0, 0, 0] == 2.0
        assert out.data[1, 0, 0] == 0.0

    def test_matches_golden_section_oracle(self, rng):
        y = rand_tensor(rng, 2, 2, 2, scale=2.0)
        tau = 0.7
        out = soft_threshold(y, tau)
        # golden section resolves the parabolic minimum to ~sqrt(eps)
        for idx in np.ndindex(2, 2, 2):
            oracle = golden_section_scalar_prox(y.data[idx], tau)
            assert out.data[idx] == pytest.approx(oracle, abs=1e-6)

    def test_rejects_nonpositive_tau(self, rng):
        with pytest.raises(ValueError, match="positive"):
            soft_threshold(rand_tensor(rng, 2, 2, 2), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-20, 20), st.floats(0.01, 5))
    def test_scalar_shrinkage_law(self, v, tau):
        out = soft_threshold(Tensor3(np.full((1, 1, 1), v)), tau)
        expected = np.sign(v) * max(abs(v) - tau, 0.0)
        assert out.data[0, 0, 0] == pytest.approx(expected, abs=1e-12)


class TestTsvt:
    def test_large_tau_gives_zero(self, rng):
        t = make_dct(4)
        y = rand_tensor(rng, 5, 5, 4)
        out = tsvt(y, spectral_norm(y, t) * 1.0001, t)
        assert norm(out) == 0.0

    def test_vanishing_tau_is_identity(self, rng):
        t = make_scaled_hadamard(4)
        y = rand_tensor(rng, 5, 5, 4)
        out = tsvt(y, 1e-15, t)
        assert np.abs(out.data - y.data).max() < 1e-10

    def test_matches_slice_svt_oracle(self, rng):
        for t in (make_dct(4), make_scaled_hadamard(4)):
            y = rand_tensor(rng, 6, 6, 4)
            out = tsvt(y, 0.3, t)
            oracle = slice_svt_oracle(y, 0.3, t)
            assert norm(out - oracle) / norm(oracle) < 1e-10

    def test_perturbation_optimality(self, rng):
        # the output minimizes tau*||x||_* + 0.5*||x - y||_F^2
        t = make_dct(4)
        y = rand_tensor(rng, 6, 6, 4)
        tau = 0.3
        star = tsvt(y, tau, t)
        base = objective(star, y, tau, t)
        for scale in (1e-2, 1e-4):
            for _ in range(100):
                pert = Tensor3(star.data + rng.standard_normal(star.dims) * scale)
                assert objective(pert, y, tau, t) >= base - 1e-12

    def test_objective_certificates(self, rng):
        t = make_scaled_hadamard(4)
        y = rand_tensor(rng, 5, 6, 4)
        tau = 0.4
        star = tsvt(y, tau, t)
        base = objective(star, y, tau, t)
        assert base <= objective(y, y, tau, t) + 1e-12
        assert base <= objective(Tensor3(np.zeros(y.dims)), y, tau, t) + 1e-12

    def test_nonexpansive(self, rng):
        t = make_dct(3)
        for _ in range(10):
            y1, y2 = rand_tensor(rng, 4, 5, 3), rand_tensor(rng, 4, 5, 3)
            d_out = norm(tsvt(y1, 0.5, t) - tsvt(y2, 0.5, t))
            assert d_out <= norm(y1 - y2) + 1e-12

    def test_ell_scaling_bookkeeping(self, rng):
        # the two equal expressions of the nuclear norm give one objective
        from trpca import tsvd
        from trpca.tlinalg import singular_tube_inner

        t = make_scaled_hadamard(8)
        y = rand_tensor(rng, 5, 5, 8)
        star = tsvt(y, 0.25, t)
        via_slices = 0.25 * nuclear_norm(star, t) + 0.5 * norm(star - y) ** 2
        via_tsvd = (
            0.25 * singular_tube_inner(tsvd(star, t)) + 0.5 * norm(star - y) ** 2
        )
        assert via_slices == pytest.approx(via_tsvd, abs=1e-10)

    def test_agrees_with_soft_threshold_on_scalars(self):
        t = make_dct(1)
        y = Tensor3(np.full((1, 1, 1), -2.5))
        a = tsvt(y, 1.0, t)
        b = soft_threshold(y, 1.0)
        assert a.data[0, 0, 0] == pytest.approx(b.data[0, 0, 0], abs=1e-12)

    def test_rejects_nonpositive_tau(self, rng):
        with pytest.raises(ValueError, match="positive"):
            tsvt(rand_tensor(rng, 2, 2, 2), -1.0, make_dct(2))


def _slices(y: Tensor3, t) -> np.ndarray:
    return np.moveaxis(t.apply_array(y.data), 2, 0)


class TestWarmTsvt:
    def test_basis_orthogonal_to_top_directions_falls_back_to_exact(self, rng):
        # the basis sees only singular directions 4..6, while every value of
        # every slice is above tau: the guard must catch it
        t = make_dct(4)
        y = rand_tensor(rng, 12, 12, 4)
        _, s, vh = np.linalg.svd(_slices(y, t))
        basis = np.swapaxes(vh[:, 3:6, :], 1, 2)
        tau = 0.5 * float(s.min())
        out, tnn, next_basis, exact = tsvt_array(y.data, tau, t, basis)
        oracle = slice_svt_oracle(y, tau, t)
        assert exact
        assert norm(Tensor3(out) - oracle) / norm(oracle) < 1e-10
        assert tnn == pytest.approx(nuclear_norm(oracle, t), rel=1e-10)
        assert next_basis is None  # all 12 values survive

    def test_basis_spanning_the_survivors_is_exact(self, rng):
        t = make_scaled_hadamard(4)
        y = rand_tensor(rng, 14, 12, 4)
        _, s, vh = np.linalg.svd(_slices(y, t))
        basis = np.swapaxes(vh[:, :5, :], 1, 2)
        tau = 0.5 * float(s[:, 1].min() + s[:, 4].max())
        assert tau > s[:, 4].max()
        out, tnn, next_basis, exact = tsvt_array(y.data, tau, t, basis)
        oracle = slice_svt_oracle(y, tau, t)
        assert not exact
        assert norm(Tensor3(out) - oracle) / norm(oracle) < 1e-10
        assert tnn == pytest.approx(nuclear_norm(oracle, t), rel=1e-10)

    def test_no_basis_once_it_would_reach_half_the_slice(self, rng):
        t = make_dct(3)
        y = rand_tensor(rng, 20, 20, 3)
        s = np.linalg.svd(_slices(y, t), compute_uv=False)
        for kept, carried in ((1, True), (2, False)):  # 1 + 8 < 10 <= 2 + 8
            tau = float(s[:, kept].max()) * 1.0000001
            _, _, next_basis, _ = tsvt_array(y.data, tau, t)
            assert (next_basis is not None) == carried

    def test_next_basis_carries_survivors_plus_extra(self, rng):
        from trpca.prox import WARM_EXTRA

        t = make_dct(4)
        y = rand_tensor(rng, 30, 30, 4)
        s = np.linalg.svd(_slices(y, t), compute_uv=False)
        tau = float(s[:, 2].max()) * 1.0000001  # at most two values survive
        _, _, next_basis, _ = tsvt_array(y.data, tau, t)
        k = int(np.count_nonzero((s > tau).any(axis=0)))
        assert next_basis.shape == (4, 30, k + WARM_EXTRA)
        gram = np.swapaxes(next_basis, 1, 2) @ next_basis
        assert np.abs(gram - np.eye(k + WARM_EXTRA)).max() < 1e-12
