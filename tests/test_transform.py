import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from trpca import (
    Tensor3,
    TransformValidationError,
    inner,
    make_dct,
    make_identity,
    make_random_orthogonal,
    make_scaled_hadamard,
    norm,
    validate,
)
from trpca import transform as transform_mod

from conftest import rand_tensor


def shipped_transforms(n3):
    out = [make_dct(n3), make_random_orthogonal(n3, 42)]
    if n3 & (n3 - 1) == 0:
        out.append(make_scaled_hadamard(n3))
    return out


class TestDct:
    def test_degenerate_size(self):
        t = make_dct(1)
        np.testing.assert_array_equal(t.matrix, [[1.0]])
        assert t.ell == 1.0

    def test_n2_closed_form(self):
        t = make_dct(2)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(t.matrix, [[s, s], [s, -s]], atol=1e-15)
        np.testing.assert_allclose(t.matrix.T @ t.matrix, np.eye(2), atol=1e-15)

    def test_orthonormal_at_n8(self):
        t = make_dct(8)
        assert np.abs(t.matrix.T @ t.matrix - np.eye(8)).max() < 1e-12

    def test_matches_scipy_dct(self):
        # rows of the matrix = orthonormal DCT-II applied to the basis vectors
        t = make_dct(7)
        oracle = scipy.fft.dct(np.eye(7), axis=0, norm="ortho")
        np.testing.assert_allclose(t.matrix, oracle, atol=1e-14)


class TestRandomOrthogonal:
    def test_orthogonal(self):
        t = make_random_orthogonal(9, seed=1)
        assert np.abs(t.matrix.T @ t.matrix - np.eye(9)).max() < 1e-10

    def test_deterministic(self):
        a = make_random_orthogonal(6, seed=123)
        b = make_random_orthogonal(6, seed=123)
        assert (a.matrix == b.matrix).all()

    def test_seeds_differ(self):
        a = make_random_orthogonal(6, seed=1)
        b = make_random_orthogonal(6, seed=2)
        assert not np.allclose(a.matrix, b.matrix)

    def test_unit_determinant_via_lu(self):
        t = make_random_orthogonal(16, seed=5)
        lu, piv = scipy.linalg.lu_factor(t.matrix)
        swaps = int(np.sum(piv != np.arange(16)))
        det = (-1.0) ** swaps * np.prod(np.diag(lu))
        assert abs(abs(det) - 1.0) < 1e-8


class TestHadamard:
    def test_n2_closed_form(self):
        t = make_scaled_hadamard(2)
        np.testing.assert_array_equal(t.matrix, [[1, 1], [1, -1]])
        assert t.ell == 2.0

    def test_n4_exact_gram(self):
        t = make_scaled_hadamard(4)
        np.testing.assert_array_equal(t.matrix.T @ t.matrix, 4.0 * np.eye(4))

    def test_n8_validates_with_ell_8(self):
        t = validate(make_scaled_hadamard(8).matrix)
        assert t.ell == pytest.approx(8.0, rel=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power-of-two"):
            make_scaled_hadamard(6)

    @pytest.mark.parametrize("n3", [1, 2, 4, 8, 64, 256])
    def test_matches_scipy_sylvester(self, n3):
        np.testing.assert_array_equal(
            make_scaled_hadamard(n3).matrix, scipy.linalg.hadamard(n3)
        )


class TestValidate:
    def test_accepts_identity(self):
        t = validate(np.eye(5))
        assert t.ell == pytest.approx(1.0)

    def test_rejects_shear(self):
        with pytest.raises(TransformValidationError) as exc:
            validate(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert exc.value.deviation > 0.1
        assert "deviation" in str(exc.value)

    def test_scaled_dct_gets_squared_ell(self):
        t = validate(3.0 * make_dct(4).matrix)
        assert t.ell == pytest.approx(9.0, rel=1e-12)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            validate(np.ones((2, 3)))

    def test_inverse_is_analytic(self):
        t = make_scaled_hadamard(4)
        np.testing.assert_allclose(t.matrix @ t.inverse, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(t.inverse, t.matrix.T / 4.0, atol=1e-15)


class TestApply:
    def test_identity_transform_is_noop(self, rng):
        t = make_identity(4)
        a = rand_tensor(rng, 3, 2, 4)
        np.testing.assert_array_equal(t.apply(a).data, a.data)

    def test_dct_constant_tube(self):
        n3 = 5
        c = 2.5
        a = Tensor3(np.full((1, 1, n3), c))
        out = make_dct(n3).apply(a)
        expected = np.zeros(n3)
        expected[0] = c * np.sqrt(n3)
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-12)

    def test_round_trip(self, rng):
        for t in shipped_transforms(8):
            a = rand_tensor(rng, 4, 5, 8)
            back = t.apply_inverse(t.apply(a))
            assert np.abs(back.data - a.data).max() < 1e-10

    def test_dimension_mismatch(self, rng):
        a = rand_tensor(rng, 3, 3, 5)
        message = "tensor n3=5 does not match transform size 4"
        for call in (make_dct(4).apply, lambda a: make_dct(4).to_slices(a.data)):
            with pytest.raises(ValueError, match=message):
                call(a)

    def test_slices_are_transform_domain_frontal_slices(self, rng):
        for t in shipped_transforms(4):
            a = rand_tensor(rng, 3, 5, 4)
            slices = t.to_slices(a.data)
            assert slices.shape == (4, 3, 5)
            for k in range(4):
                np.testing.assert_array_equal(slices[k], t.apply(a).data[:, :, k])
            back = t.from_slices(slices)
            assert np.abs(back - a.data).max() < 1e-10

    def test_linearity(self, rng):
        for t in shipped_transforms(4):
            a, b = rand_tensor(rng, 3, 3, 4), rand_tensor(rng, 3, 3, 4)
            lhs = t.apply(2.0 * a + (-3.5) * b)
            rhs = 2.0 * t.apply(a) + (-3.5) * t.apply(b)
            assert np.abs(lhs.data - rhs.data).max() < 1e-10


class TestScalingIdentities:
    def test_inner_product_identity(self, rng):
        # <a, b> = (1/ell) <apply(a), apply(b)> for every shipped transform
        for t in shipped_transforms(8):
            for _ in range(20):
                a, b = rand_tensor(rng, 4, 5, 8), rand_tensor(rng, 4, 5, 8)
                lhs = inner(a, b)
                rhs = inner(t.apply(a), t.apply(b)) / t.ell
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_frobenius_identity(self, rng):
        for t in shipped_transforms(8):
            for _ in range(20):
                a = rand_tensor(rng, 4, 5, 8)
                assert norm(a) * np.sqrt(t.ell) == pytest.approx(
                    norm(t.apply(a)), rel=1e-10
                )


class TestFromSpec:
    def test_dct_and_hadamard(self):
        assert transform_mod.from_spec("dct", 4).ell == pytest.approx(1.0)
        assert transform_mod.from_spec("hadamard", 4).ell == pytest.approx(4.0)

    def test_rom_spec_is_seeded(self):
        a = transform_mod.from_spec("rom:9", 5)
        b = transform_mod.from_spec("rom:9", 5)
        assert (a.matrix == b.matrix).all()

    def test_file_spec_roundtrip(self, tmp_path):
        path = tmp_path / "mat.csv"
        mat = make_dct(3).matrix
        path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in mat))
        t = transform_mod.from_spec(f"file:{path}", 3)
        np.testing.assert_allclose(t.matrix, mat, atol=1e-15)

    def test_file_spec_rejects_shear(self, tmp_path):
        path = tmp_path / "shear.csv"
        path.write_text("1,1\n0,1\n")
        with pytest.raises(TransformValidationError):
            transform_mod.from_spec(f"file:{path}", 2)

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown transform spec"):
            transform_mod.from_spec("fft", 4)
