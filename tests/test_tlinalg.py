import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trpca import (
    Tensor3,
    column_basis,
    identity_tensor,
    incoherence,
    inner,
    make_dct,
    make_identity,
    make_random_orthogonal,
    make_scaled_hadamard,
    norm,
    nuclear_norm,
    spectral_norm,
    tprod,
    tsvd,
    ttranspose,
    tubal_rank,
    tube_basis,
    zeros,
)
from trpca import tlinalg

from conftest import rand_tensor


def bdiag(a: Tensor3, t) -> np.ndarray:
    """Oracle: the explicit block-diagonal matrix of transform-domain slices."""
    bar = t.apply(a)
    n1, n2, n3 = a.dims
    out = np.zeros((n1 * n3, n2 * n3))
    for i in range(n3):
        for r in range(n1):
            for c in range(n2):
                out[i * n1 + r, i * n2 + c] = bar.data[r, c, i]
    return out


def fold_bdiag(mat: np.ndarray, dims, t) -> Tensor3:
    n1, n2, n3 = dims
    slices = [mat[i * n1:(i + 1) * n1, i * n2:(i + 1) * n2] for i in range(n3)]
    return t.apply_inverse(Tensor3(np.stack(slices, axis=2)))


class TestTprod:
    def test_identity_law_right(self, rng):
        t = make_dct(4)
        a = rand_tensor(rng, 3, 5, 4)
        out = tprod(a, identity_tensor(5, t), t)
        assert np.abs(out.data - a.data).max() < 1e-10

    def test_identity_law_left(self, rng):
        t = make_scaled_hadamard(4)
        a = rand_tensor(rng, 3, 5, 4)
        out = tprod(identity_tensor(3, t), a, t)
        assert np.abs(out.data - a.data).max() < 1e-10

    def test_matrix_reduction_n3_1(self, rng):
        t = make_identity(1)
        a, b = rand_tensor(rng, 4, 3, 1), rand_tensor(rng, 3, 2, 1)
        out = tprod(a, b, t)
        np.testing.assert_allclose(
            out.data[:, :, 0], a.data[:, :, 0] @ b.data[:, :, 0], atol=1e-12
        )

    def test_matches_block_diagonal_oracle(self, rng):
        t = make_dct(5)
        a, b = rand_tensor(rng, 3, 4, 5), rand_tensor(rng, 4, 2, 5)
        big = bdiag(a, t) @ bdiag(b, t)
        oracle = fold_bdiag(big, (3, 2, 5), t)
        out = tprod(a, b, t)
        assert np.abs(out.data - oracle.data).max() < 1e-10

    def test_dimension_errors(self, rng):
        t = make_dct(3)
        with pytest.raises(ValueError, match="inner dimension"):
            tprod(rand_tensor(rng, 2, 3, 3), rand_tensor(rng, 2, 2, 3), t)
        with pytest.raises(ValueError, match="n3"):
            tprod(rand_tensor(rng, 2, 3, 3), rand_tensor(rng, 3, 2, 2), t)

    def test_associativity(self, rng):
        for t in (make_dct(4), make_scaled_hadamard(4)):
            a = rand_tensor(rng, 3, 4, 4)
            b = rand_tensor(rng, 4, 2, 4)
            c = rand_tensor(rng, 2, 5, 4)
            left = tprod(tprod(a, b, t), c, t)
            right = tprod(a, tprod(b, c, t), t)
            scale = max(norm(left), 1.0)
            assert norm(left - right) / scale < 1e-9


class TestTranspose:
    def test_double_transpose(self, rng):
        a = rand_tensor(rng, 3, 5, 2)
        np.testing.assert_array_equal(ttranspose(ttranspose(a)).data, a.data)

    def test_matrix_reduction(self, rng):
        a = rand_tensor(rng, 4, 3, 1)
        np.testing.assert_array_equal(
            ttranspose(a).data[:, :, 0], a.data[:, :, 0].T
        )

    def test_transform_domain_definition(self, rng):
        # each transform-domain slice of the transpose is the slice transpose
        for t in (make_dct(4), make_random_orthogonal(4, 3), make_scaled_hadamard(4)):
            a = rand_tensor(rng, 3, 5, 4)
            bar_t = t.apply(ttranspose(a, t))
            bar = t.apply(a)
            for i in range(4):
                np.testing.assert_allclose(
                    bar_t.data[:, :, i], bar.data[:, :, i].T, atol=1e-12
                )

    def test_anti_homomorphism(self, rng):
        t = make_dct(3)
        a, b = rand_tensor(rng, 3, 4, 3), rand_tensor(rng, 4, 2, 3)
        lhs = ttranspose(tprod(a, b, t), t)
        rhs = tprod(ttranspose(b, t), ttranspose(a, t), t)
        assert np.abs(lhs.data - rhs.data).max() < 1e-10


class TestIdentityTensor:
    def test_identity_transform_slices(self):
        t = make_identity(3)
        eye = identity_tensor(4, t)
        for i in range(3):
            np.testing.assert_array_equal(eye.frontal_slice(i), np.eye(4))

    def test_dct_transform_domain_slices(self):
        t = make_dct(4)
        bar = t.apply(identity_tensor(5, t))
        for i in range(4):
            assert np.abs(bar.data[:, :, i] - np.eye(5)).max() < 1e-12

    def test_self_inner_product_under_hadamard(self):
        # <I, I> = (1/ell) * n * n3 = n when ell = n3
        t = make_scaled_hadamard(8)
        eye = identity_tensor(6, t)
        assert inner(eye, eye) == pytest.approx(6.0, rel=1e-10)


class TestTsvd:
    def test_zero_tensor(self):
        t = make_dct(3)
        f = tsvd(zeros(4, 3, 3), t)
        assert norm(f.s) == 0.0
        assert tubal_rank(zeros(4, 3, 3), t) == 0

    def test_identity_tensor_factors(self):
        t = make_dct(3)
        eye = identity_tensor(4, t)
        f = tsvd(eye, t)
        assert np.abs(f.s.data - eye.data).max() < 1e-10
        assert tubal_rank(eye, t) == 4

    def test_reconstruction_and_gram_oracle(self, rng):
        t = make_random_orthogonal(3, seed=8)
        a = rand_tensor(rng, 6, 4, 3)
        f = tsvd(a, t, skinny=False)
        rec = tprod(tprod(f.u, f.s, t), ttranspose(f.v), t)
        assert norm(rec - a) / norm(a) < 1e-10
        # singular values of each transform-domain slice match the eigenvalues
        # of its Gram matrix
        sbar = t.apply(f.s)
        abar = t.apply(a)
        for i in range(3):
            eigs = np.linalg.eigvalsh(abar.data[:, :, i].T @ abar.data[:, :, i])
            sv_oracle = np.sqrt(np.maximum(eigs[::-1], 0.0))
            np.testing.assert_allclose(
                np.diag(sbar.data[:, :, i]), sv_oracle, atol=1e-8
            )

    def test_factor_orthogonality(self, rng):
        t = make_scaled_hadamard(4)
        a = rand_tensor(rng, 5, 5, 4)
        f = tsvd(a, t, skinny=False)
        eye = identity_tensor(5, t)
        for q in (f.u, f.v):
            left = tprod(ttranspose(q, t), q, t)
            right = tprod(q, ttranspose(q, t), t)
            assert np.abs(left.data - eye.data).max() < 1e-8
            assert np.abs(right.data - eye.data).max() < 1e-8

    def test_skinny_truncates_to_rank(self, rng):
        t = make_dct(5)
        p, q = rand_tensor(rng, 6, 2, 5), rand_tensor(rng, 7, 2, 5)
        a = tprod(p, ttranspose(q), t)
        f = tsvd(a, t, skinny=True)
        assert f.k == 2
        assert f.u.dims == (6, 2, 5)
        assert f.v.dims == (7, 2, 5)
        rec = tprod(tprod(f.u, f.s, t), ttranspose(f.v), t)
        assert norm(rec - a) / norm(a) < 1e-8

    def test_transform_domain_s_is_f_diagonal_nonincreasing(self, rng):
        t = make_dct(4)
        f = tsvd(rand_tensor(rng, 5, 6, 4), t, skinny=False)
        sbar = t.apply(f.s)
        for i in range(4):
            slice_i = sbar.data[:, :, i]
            diag = np.diag(slice_i)
            assert np.abs(slice_i - np.diag(diag)).max() < 1e-10
            assert (diag >= -1e-12).all()
            assert (np.diff(diag) <= 1e-12).all()

    def test_deterministic_factors(self, rng):
        t = make_dct(3)
        a = rand_tensor(rng, 4, 4, 3)
        f1, f2 = tsvd(a, t), tsvd(a, t)
        assert (f1.u.data == f2.u.data).all()
        assert (f1.v.data == f2.v.data).all()

    def test_svd_failure_names_the_slice(self, rng, monkeypatch):
        t = make_identity(3)
        a = rand_tensor(rng, 3, 3, 3)
        bad_slice = a.data[:, :, 1]
        real_svd = np.linalg.svd

        def flaky(arr, *args, **kw):
            if arr.ndim == 3 or np.array_equal(arr, bad_slice):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(arr, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", flaky)
        with pytest.raises(np.linalg.LinAlgError, match="slice 1"):
            tsvd(a, t)


class TestRanksAndNorms:
    def test_tubal_rank_generic_product(self, rng):
        t = make_dct(6)
        p, q = rand_tensor(rng, 8, 3, 6), rand_tensor(rng, 8, 3, 6)
        assert tubal_rank(tprod(p, ttranspose(q), t), t) == 3

    @pytest.mark.parametrize("scale", [1e160, 1e-200])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_tubal_rank_at_extreme_magnitudes(self, scale, seed):
        # squaring values near 1e160 overflows and near 1e-200 underflows
        t = make_dct(8)
        track = np.random.default_rng(seed)
        p, q = rand_tensor(track, 10, 3, 8), rand_tensor(track, 10, 3, 8)
        a = tprod(p, ttranspose(q), t)
        assert tubal_rank(Tensor3(a.data * scale), t) == 3

    def test_tubal_rank_identity(self):
        t = make_scaled_hadamard(4)
        assert tubal_rank(identity_tensor(5, t), t) == 5

    def test_spectral_norm_identity_and_zero(self):
        for t in (make_dct(4), make_random_orthogonal(4, 2)):
            assert spectral_norm(identity_tensor(3, t), t) == pytest.approx(1.0)
        assert spectral_norm(zeros(3, 3, 4), make_dct(4)) == 0.0

    def test_spectral_norm_matches_bdiag_oracle(self, rng):
        t = make_scaled_hadamard(4)
        a = rand_tensor(rng, 4, 5, 4)
        oracle = np.linalg.svd(bdiag(a, t), compute_uv=False)[0]
        assert spectral_norm(a, t) == pytest.approx(oracle, rel=1e-12)

    def test_nuclear_norm_zero_and_identity(self):
        t = make_dct(5)
        assert nuclear_norm(zeros(2, 3, 5), t) == 0.0
        assert nuclear_norm(identity_tensor(4, t), t) == pytest.approx(20.0)

    def test_nuclear_norm_dual_expression(self, rng):
        # (1/ell)*||bdiag||_* equals <s, identity> from the t-SVD
        for t in (make_dct(4), make_scaled_hadamard(4)):
            a = rand_tensor(rng, 5, 5, 4)
            f = tsvd(a, t)
            via_inner = tlinalg.singular_tube_inner(f)
            assert nuclear_norm(a, t) == pytest.approx(via_inner, abs=1e-10)

    def test_dual_norm_inequality(self, rng):
        # inner(a, b) <= nuclear_norm(a) for every spectral-norm <= 1 probe
        t = make_scaled_hadamard(4)
        a = rand_tensor(rng, 5, 6, 4)
        tnn = nuclear_norm(a, t)
        for _ in range(100):
            b = rand_tensor(rng, 5, 6, 4)
            b = (1.0 / spectral_norm(b, t)) * b
            assert inner(a, b) <= tnn + 1e-8

    def test_spectral_submultiplicative(self, rng):
        t = make_dct(3)
        a, b = rand_tensor(rng, 4, 5, 3), rand_tensor(rng, 5, 4, 3)
        assert spectral_norm(tprod(a, b, t), t) <= (
            spectral_norm(a, t) * spectral_norm(b, t) + 1e-10
        )

    def test_average_rank_derivable_from_tsvd(self, rng):
        # (1/ell) * rank of the block-diagonal matrix, from the slice spectra
        t = make_scaled_hadamard(4)
        p, q = rand_tensor(rng, 6, 2, 4), rand_tensor(rng, 6, 2, 4)
        a = tprod(p, ttranspose(q), t)
        sbar = t.apply(tsvd(a, t, skinny=False).s)
        values = np.array([np.diag(sbar.data[:, :, i]) for i in range(4)])
        avg_rank = np.count_nonzero(values > 1e-8 * values.max()) / t.ell
        assert avg_rank == pytest.approx(8 / t.ell)  # rank 2 per slice generically


class TestBases:
    def test_column_basis_identity_transform(self):
        t = make_identity(3)
        e = column_basis(1, 4, t)
        expected = np.zeros((4, 1, 3))
        expected[1, 0, :] = 1.0
        np.testing.assert_array_equal(e.data, expected)

    def test_column_basis_transform_domain_support(self):
        t = make_dct(5)
        e = column_basis(2, 6, t)
        bar = t.apply(e)
        assert np.count_nonzero(np.abs(bar.data) > 1e-12) == 5
        np.testing.assert_allclose(bar.data[2, 0, :], np.ones(5), atol=1e-12)

    def test_tube_basis_norms_under_hadamard(self):
        # ||L(tube_k)||_F = 1 and ||L(L(tube_k))||_F = sqrt(ell)
        t = make_scaled_hadamard(8)
        for k in (0, 3, 7):
            e = tube_basis(k, t)
            assert norm(t.apply(e)) == pytest.approx(1.0, rel=1e-12)
            assert norm(t.apply(t.apply(e))) == pytest.approx(
                np.sqrt(t.ell), rel=1e-12
            )

    def test_index_bounds(self):
        t = make_dct(3)
        with pytest.raises(IndexError):
            column_basis(4, 4, t)
        with pytest.raises(IndexError):
            tube_basis(3, t)


def incoherence_mu1_oracle(a, t):
    """Literal evaluation of the column-basis energy via t-products."""
    f = tsvd(a, t)
    r, n1 = f.k, a.n1
    ut = ttranspose(f.u, t)
    worst = 0.0
    for i in range(n1):
        e_i = column_basis(i, n1, t)
        for k in range(t.size):
            probe = tprod(tprod(ut, e_i, t), t.apply(tube_basis(k, t)), t)
            worst = max(worst, norm(probe) ** 2)
    return n1 / r * worst


class TestIncoherence:
    def test_identity_tensor_mu1_is_one(self):
        t = make_identity(2)
        rep = incoherence(identity_tensor(4, t), t)
        assert rep.mu1 == pytest.approx(1.0, rel=1e-10)
        assert rep.mu2 == pytest.approx(1.0, rel=1e-10)
        assert np.isfinite(rep.mu)

    def test_matches_literal_tprod_oracle(self, rng):
        for t in (make_dct(2), make_scaled_hadamard(2)):
            a = rand_tensor(rng, 4, 3, 2)
            rep = incoherence(a, t)
            assert rep.mu1 == pytest.approx(incoherence_mu1_oracle(a, t), rel=1e-8)

    def test_single_tube_is_maximally_coherent(self, rng):
        t = make_identity(3)
        data = np.zeros((8, 5, 3))
        data[2, 1, :] = rng.standard_normal(3)
        rep = incoherence(Tensor3(data), t)
        assert rep.mu1 == pytest.approx(8.0, rel=1e-8)

    def test_random_factors_are_spread(self, rng):
        t = make_dct(4)
        p, q = rand_tensor(rng, 50, 5, 4), rand_tensor(rng, 50, 5, 4)
        rep = incoherence(tprod(p, ttranspose(q), t), t)
        assert rep.mu < 50 / 2  # diagnostic sanity: well below n

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            incoherence(zeros(3, 3, 3), make_dct(3))

    def test_basis_energy_bound(self, rng):
        # ||u' * e_i * L(tube_k)|| <= sqrt(ell) * ||u' * e_i|| for all i, k
        t = make_scaled_hadamard(4)
        a = rand_tensor(rng, 5, 4, 4)
        f = tsvd(a, t)
        ut = ttranspose(f.u, t)
        for i in range(5):
            e_i = column_basis(i, 5, t)
            base = norm(tprod(ut, e_i, t))
            for k in range(4):
                probe = tprod(tprod(ut, e_i, t), t.apply(tube_basis(k, t)), t)
                assert norm(probe) <= np.sqrt(t.ell) * base + 1e-10
