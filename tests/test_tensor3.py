import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from trpca import Tensor3, from_flat, from_slices, inner, norm, zeros
from trpca import tensor3

from conftest import rand_tensor


def small_tensors(max_dim=4):
    shapes = st.tuples(*[st.integers(1, max_dim)] * 3)
    return shapes.flatmap(
        lambda s: npst.arrays(
            np.float64,
            s,
            elements=st.floats(-10, 10, allow_nan=False, width=64),
        )
    ).map(Tensor3)


class TestConstruction:
    def test_rejects_nan(self):
        bad = np.ones((2, 2, 2))
        bad[0, 1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Tensor3(bad)

    def test_rejects_inf(self):
        bad = np.ones((2, 2, 2))
        bad[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            Tensor3(bad)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="3-way"):
            Tensor3(np.ones((2, 2)))

    def test_immutable(self, rng):
        t = rand_tensor(rng, 3, 3, 3)
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_source_array_is_copied(self):
        src = np.ones((2, 2, 2))
        t = Tensor3(src)
        src[0, 0, 0] = 99.0
        assert t.data[0, 0, 0] == 1.0


class TestLayout:
    def test_flat_layout_slice_major(self):
        # entries 1..8 in layout order: first frontal slice holds 1..4
        t = from_flat(np.arange(1.0, 9.0), (2, 2, 2))
        np.testing.assert_array_equal(t.frontal_slice(0), [[1, 2], [3, 4]])
        np.testing.assert_array_equal(t.frontal_slice(1), [[5, 6], [7, 8]])

    def test_flat_round_trip(self, rng):
        t = rand_tensor(rng, 3, 4, 5)
        back = from_flat(tensor3.to_flat(t), t.dims)
        np.testing.assert_array_equal(back.data, t.data)

    def test_slice_out_of_range(self):
        t = zeros(2, 2, 2)
        with pytest.raises(IndexError):
            t.frontal_slice(2)
        with pytest.raises(IndexError):
            t.frontal_slice(-1)

    def test_slices_partition_tensor(self, rng):
        t = rand_tensor(rng, 3, 4, 5)
        rebuilt = from_slices([t.frontal_slice(i) for i in range(5)])
        np.testing.assert_array_equal(rebuilt.data, t.data)


class TestInner:
    def test_inner_is_frobenius_squared(self, rng):
        t = rand_tensor(rng, 3, 3, 3)
        assert inner(t, t) == pytest.approx(norm(t) ** 2, rel=1e-12)

    def test_inner_with_zero(self, rng):
        t = rand_tensor(rng, 3, 3, 3)
        assert inner(t, zeros(3, 3, 3)) == 0.0

    def test_inner_matches_triple_loop(self, rng):
        a, b = rand_tensor(rng, 3, 3, 3), rand_tensor(rng, 3, 3, 3)
        acc = 0.0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    acc += a.data[i, j, k] * b.data[i, j, k]
        assert inner(a, b) == pytest.approx(acc, rel=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            inner(rand_tensor(rng, 2, 2, 2), rand_tensor(rng, 2, 2, 3))

    @settings(max_examples=30, deadline=None)
    @given(small_tensors())
    def test_inner_symmetric(self, a):
        b = Tensor3(a.data[::-1].copy())  # same dims, different values
        assert inner(a, b) == pytest.approx(inner(b, a), rel=1e-12, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(small_tensors(), st.floats(-5, 5), st.floats(-5, 5))
    def test_inner_bilinear(self, a, alpha, beta):
        rng = np.random.default_rng(7)
        b = Tensor3(rng.standard_normal(a.dims))
        c = Tensor3(rng.standard_normal(a.dims))
        lhs = inner(a, alpha * b + beta * c)
        rhs = alpha * inner(a, b) + beta * inner(a, c)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


class TestNorms:
    def test_all_ones_closed_forms(self):
        t = Tensor3(np.ones((2, 2, 2)))
        assert norm(t, "frobenius") == pytest.approx(np.sqrt(8.0))
        assert norm(t, "l1") == 8.0
        assert norm(t, "linf") == 1.0

    def test_zero_tensor(self):
        t = zeros(3, 2, 4)
        for kind in ("frobenius", "l1", "linf"):
            assert norm(t, kind) == 0.0

    def test_frobenius_matches_flat_vector(self, rng):
        t = rand_tensor(rng, 4, 3, 2)
        flat = tensor3.to_flat(t)
        acc = 0.0
        for v in flat:
            acc += v * v
        assert norm(t) ** 2 == pytest.approx(acc, rel=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            norm(zeros(1, 1, 1), "l2")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e-300, 1e-200, 1e200, 1e300])
    def test_frobenius_at_extreme_magnitudes(self, c):
        # the squares of these entries under- or overflow a float64
        t = Tensor3(np.ones((3, 3, 2)) * c)
        assert norm(t) == pytest.approx(c * np.sqrt(18.0), rel=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(small_tensors())
    def test_triangle_inequality(self, a):
        b = Tensor3(np.roll(a.data, 1))
        assert norm(a + b) <= norm(a) + norm(b) + 1e-12


class TestFileFormats:
    def test_binary_round_trip(self, rng, tmp_path):
        t = rand_tensor(rng, 3, 5, 4)
        path = tmp_path / "t.bin"
        tensor3.write_tensor(t, path)
        back = tensor3.read_tensor(path)
        np.testing.assert_array_equal(back.data, t.data)

    def test_binary_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a tensor at all")
        with pytest.raises(ValueError, match="magic"):
            tensor3.read_tensor(path)

    def test_binary_rejects_truncation(self, rng, tmp_path):
        t = rand_tensor(rng, 2, 2, 2)
        path = tmp_path / "t.bin"
        tensor3.write_tensor(t, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            tensor3.read_tensor(path)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n\n5,6\n7,8\n")
        t = tensor3.read_tensor_csv(path)
        assert t.dims == (2, 2, 2)
        np.testing.assert_array_equal(tensor3.to_flat(t), np.arange(1.0, 9.0))

    def test_csv_rejects_ragged_blocks(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n\n5,6\n")
        with pytest.raises(ValueError, match="differ"):
            tensor3.read_tensor_csv(path)

    def test_load_tensor_sniffs_format(self, rng, tmp_path):
        t = rand_tensor(rng, 2, 3, 2)
        bin_path = tmp_path / "t.bin"
        tensor3.write_tensor(t, bin_path)
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("1,2\n3,4\n\n5,6\n7,8\n")
        assert tensor3.load_tensor(bin_path).dims == (2, 3, 2)
        assert tensor3.load_tensor(csv_path).dims == (2, 2, 2)
