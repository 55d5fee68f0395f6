import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trpca import (
    SolverConfig,
    Tensor3,
    default_lambda,
    make_dct,
    make_identity,
    make_random_orthogonal,
    make_scaled_hadamard,
    norm,
    nuclear_norm,
    solve,
    spectral_norm,
    ttranspose,
    zeros,
)
from trpca import synth
from trpca import transform as transform_mod
from trpca.solver import TraceRow

from conftest import rand_tensor


def matrix_rpca_admm(x, lam, mu0=1e-3, rho=1.1, mu_max=1e10, tol=1e-8, max_iters=500):
    """Independently coded matrix RPCA (nuclear + l1) with the same schedule."""
    low = np.zeros_like(x)
    sparse = np.zeros_like(x)
    dual = np.zeros_like(x)
    mu = mu0
    for _ in range(max_iters):
        u, s, vh = np.linalg.svd(x - sparse + dual / mu, full_matrices=False)
        low_new = u @ np.diag(np.maximum(s - 1.0 / mu, 0.0)) @ vh
        arg = x - low_new + dual / mu
        sparse_new = np.sign(arg) * np.maximum(np.abs(arg) - lam / mu, 0.0)
        dual += mu * (x - low_new - sparse_new)
        stop = max(
            np.abs(low_new + sparse_new - x).max(),
            np.abs(low_new - low).max(),
            np.abs(sparse_new - sparse).max(),
        )
        low, sparse = low_new, sparse_new
        if stop <= tol:
            break
        mu = min(rho * mu, mu_max)
    return low, sparse


def tensor_rpca_admm(x, t, lam, mu0, rho=1.1, mu_max=1e10, tol=1e-8, max_iters=500):
    """Independently coded tensor RPCA: a full SVD of every transform-domain
    slice in every iteration, with the solver's schedule."""
    mat = t.matrix
    inv = np.linalg.inv(mat)

    def svt(y, tau):
        bar = np.einsum("ijk,lk->ijl", y, mat)
        for k in range(bar.shape[2]):
            u, s, vh = np.linalg.svd(bar[:, :, k], full_matrices=False)
            bar[:, :, k] = u @ np.diag(np.maximum(s - tau, 0.0)) @ vh
        return np.einsum("ijk,lk->ijl", bar, inv)

    low = np.zeros_like(x)
    sparse = np.zeros_like(x)
    dual = np.zeros_like(x)
    mu = mu0
    for _ in range(max_iters):
        low_new = svt(x - sparse + dual / mu, 1.0 / mu)
        arg = x - low_new + dual / mu
        sparse_new = np.sign(arg) * np.maximum(np.abs(arg) - lam / mu, 0.0)
        dual += mu * (x - low_new - sparse_new)
        stop = max(
            np.abs(low_new + sparse_new - x).max(),
            np.abs(low_new - low).max(),
            np.abs(sparse_new - sparse).max(),
        )
        low, sparse = low_new, sparse_new
        if stop <= tol:
            break
        mu = min(rho * mu, mu_max)
    return low, sparse


def rel_diff(a: Tensor3, b: Tensor3) -> float:
    return norm(a - b) / max(norm(b), 1e-12)


class TestDefaultLambda:
    def test_square_dct(self):
        assert default_lambda(100, 100, make_dct(4)) == pytest.approx(0.1)

    def test_rectangular_uses_larger_dim(self):
        assert default_lambda(100, 25, make_dct(4)) == pytest.approx(0.1)
        assert default_lambda(25, 100, make_dct(4)) == pytest.approx(0.1)

    def test_hadamard_ell_scaling(self):
        assert default_lambda(100, 100, make_scaled_hadamard(4)) == pytest.approx(0.05)


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(mu0=1.0, mu_max=0.1)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(rho=0.5)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["lam", "mu0", "rho", "mu_max", "tol"]),
        st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
            st.floats(max_value=-1e-300, allow_infinity=False),
        ),
    )
    def test_non_finite_or_nonpositive_field_is_named(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})


class TestSolve:
    def test_zero_input_one_iteration(self):
        sol = solve(zeros(6, 5, 3), make_dct(3))
        assert sol.iterations == 1
        assert sol.converged
        assert norm(sol.low_rank) == 0.0
        assert norm(sol.sparse) == 0.0

    def test_spike_goes_to_sparse(self):
        data = np.zeros((10, 10, 4))
        data[3, 7, 2] = 40.0
        x = Tensor3(data)
        t = make_dct(4)
        sol = solve(x, t)
        assert sol.converged
        assert norm(sol.low_rank) < 1e-6
        assert sol.sparse.data[3, 7, 2] == pytest.approx(40.0, abs=1e-6)
        # objective beats the trivial feasible points
        lam = default_lambda(10, 10, t)
        obj = nuclear_norm(sol.low_rank, t) + lam * norm(sol.sparse, "l1")
        assert obj <= nuclear_norm(x, t) + 1e-8
        assert obj <= lam * norm(x, "l1") + 1e-8

    def test_feasibility_at_convergence(self, rng):
        t = make_dct(5)
        x = rand_tensor(rng, 12, 12, 5)
        sol = solve(x, t)
        assert sol.converged
        assert norm(sol.low_rank + sol.sparse - x, "linf") <= 1e-8

    def test_trace_objective_monotone_after_burn_in(self, rng):
        # starting from zero the objective climbs monotonically (within a
        # small relative slack) to the constrained optimum and never exceeds
        # the objective of the trivial feasible decompositions
        t = make_dct(8)
        low0 = synth.gen_low_rank(20, 20, 8, 2, t, seed=3)
        sparse0 = synth.gen_sparse(20, 20, 8, 300, seed=4)
        x = low0 + sparse0
        sol = solve(x, t)
        objs = [row.objective for row in sol.trace]
        slack = 1e-5 * (1.0 + objs[-1])
        for a, b in zip(objs[9:], objs[10:]):
            assert b >= a - slack
        lam = default_lambda(20, 20, t)
        assert objs[-1] <= nuclear_norm(x, t) + 1e-8
        assert objs[-1] <= lam * norm(x, "l1") + 1e-8

    def test_trace_columns_populated(self, rng):
        x, t = rand_tensor(rng, 6, 6, 2), make_dct(2)
        sol = solve(x, t)
        row = sol.trace[0]
        assert row.iteration == 1
        assert row.mu == 1.25 / spectral_norm(x, t)
        assert len(sol.trace) == sol.iterations
        # an explicit mu0 still gives the fixed start: at 1e-3 both prox
        # thresholds exceed every value of x, so the first iterates are zero
        fixed = solve(x, t, SolverConfig(mu0=1e-3))
        assert fixed.trace[0] == TraceRow(1, float(np.abs(x.data).max()), 0.0, 0.0,
                                          1e-3, 0.0)

    def test_zero_input_keeps_fixed_mu0(self):
        sol = solve(zeros(6, 5, 3), make_dct(3))
        assert sol.trace[0].mu == 1e-3

    def test_max_iters_exhaustion_is_not_error(self, rng):
        sol = solve(
            rand_tensor(rng, 8, 8, 2),
            make_dct(2),
            SolverConfig(max_iters=3),
        )
        assert not sol.converged
        assert sol.iterations == 3

    def test_n3_mismatch(self, rng):
        with pytest.raises(ValueError, match="n3"):
            solve(rand_tensor(rng, 4, 4, 3), make_dct(2))

    def test_non_finite_iterate_reports_iteration(self, rng, monkeypatch):
        from trpca import solver as solver_mod
        from trpca.solver import NonFiniteIterateError

        def exploding_tsvt(y, tau, t, basis=None):
            return np.full_like(y, np.inf), np.inf, basis, True

        monkeypatch.setattr(solver_mod, "tsvt_array", exploding_tsvt)
        with pytest.raises(NonFiniteIterateError, match="iteration 1") as exc:
            solver_mod.solve(rand_tensor(rng, 4, 4, 2), make_dct(2))
        assert exc.value.iteration == 1

    def test_matrix_rpca_reduction(self, rng):
        # with n3 = 1 and the identity transform the solver is matrix RPCA
        t = make_identity(1)
        lam = default_lambda(30, 30, t)
        for trial in range(10):
            track = np.random.default_rng(100 + trial)
            u = track.standard_normal((30, 3))
            v = track.standard_normal((30, 3))
            low0 = (u @ v.T) / 30.0
            mask = track.random((30, 30)) < 0.05
            x = low0 + mask * np.where(track.random((30, 30)) < 0.5, -1.0, 1.0)
            low_m, sparse_m = matrix_rpca_admm(x, lam)
            sol = solve(Tensor3(x[:, :, None]), t)
            scale = max(np.linalg.norm(low_m), 1e-12)
            assert np.linalg.norm(sol.low_rank.data[:, :, 0] - low_m) / scale < 1e-6
            scale = max(np.linalg.norm(sparse_m), 1e-12)
            assert np.linalg.norm(sol.sparse.data[:, :, 0] - sparse_m) / scale < 1e-6

    def test_transform_invariance_of_recovery(self):
        # data built to be low-rank under each ell=1 transform recovers equally
        for spec in ("dct", "rom:21"):
            cfg = synth.RecoveryTrialConfig(
                n1=24, n2=24, n3=12, r=2, m=round(0.05 * 24 * 24 * 12),
                transform_spec=spec, seed=17,
            )
            rep = synth.run_recovery_trial(cfg)
            assert rep.success, spec

    def test_warm_path_matches_full_svd_admm(self, monkeypatch):
        # n = 30, r = 2: the carried basis (rank + 8 columns) stays under 15,
        # so the warm projection runs, and the answer must still be the one
        # a full SVD per iteration finds
        from trpca import solver as solver_mod

        t = make_dct(10)
        low0 = synth.gen_low_rank(30, 30, 10, 2, t, seed=5)
        x = low0 + synth.gen_sparse(30, 30, 10, 450, seed=6)
        exact_flags = []
        original = solver_mod.tsvt_array

        def recording_tsvt(y, tau, t, basis=None):
            result = original(y, tau, t, basis)
            exact_flags.append(result[3])
            return result

        monkeypatch.setattr(solver_mod, "tsvt_array", recording_tsvt)
        sol = solver_mod.solve(x, t)
        assert sol.converged
        assert not all(exact_flags)
        lam = default_lambda(30, 30, t)
        low_ref, _ = tensor_rpca_admm(x.data, t, lam, 1.25 / spectral_norm(x, t))
        assert rel_diff(sol.low_rank, Tensor3(low_ref)) < 1e-6
        assert rel_diff(sol.low_rank, low0) < 1e-3
        again = solver_mod.solve(x, t)
        assert again.low_rank.data.tobytes() == sol.low_rank.data.tobytes()

    def test_exit_check_decides_convergence(self, rng, monkeypatch):
        # a fake prox that is exact but labels every call given a basis as
        # warm; the exact calls the solver makes at the stop test are shifted
        # by ``offset``, which must decide whether the solve converges
        from trpca import solver as solver_mod

        x, t = rand_tensor(rng, 10, 10, 2), make_dct(2)
        reference = solver_mod.solve(x, t)
        original = solver_mod.tsvt_array

        def run(offset):
            exact_calls = []

            def fake_tsvt(y, tau, t, basis=None):
                out, tnn, _, _ = original(y, tau, t)
                if basis is not None:
                    return out, tnn, basis, False
                exact_calls.append(tau)
                if len(exact_calls) > 1:
                    out = out + offset
                return out, tnn, np.zeros((2, 10, 1)), True

            monkeypatch.setattr(solver_mod, "tsvt_array", fake_tsvt)
            return solver_mod.solve(x, t, SolverConfig(max_iters=300)), exact_calls

        agreeing, calls = run(0.0)
        assert agreeing.converged and len(calls) == 2
        assert agreeing.iterations == reference.iterations < 300
        disagreeing, calls = run(1e-6)
        assert not disagreeing.converged and disagreeing.iterations == 300
        assert len(calls) > 2

def _instance(n1, n2, n3, spec, seed):
    t = transform_mod.from_spec(spec, n3)
    low0 = synth.gen_low_rank(n1, n2, n3, 2, t, seed=seed)
    x = low0 + synth.gen_sparse(n1, n2, n3, round(0.05 * n1 * n2 * n3), seed=seed + 1)
    return x, t


def _permute(a: Tensor3, seed: int) -> Tensor3:
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(a.n1), rng.permutation(a.n2)
    return Tensor3(a.data[rows][:, cols])


METAMORPHIC_MAPS = {
    "permute": _permute,
    "ttranspose": lambda a, seed: ttranspose(a),
    "negate": lambda a, seed: Tensor3(-a.data),
}


class TestMetamorphic:
    """The solver's answer is equivariant under the problem's symmetries: a
    row/column permutation, the tensor transpose and negation of ``x`` map
    ``low_rank`` the same way, whatever path the warm T-SVT took."""

    @pytest.mark.parametrize("kind", sorted(METAMORPHIC_MAPS))
    @settings(max_examples=4, deadline=None)
    @given(
        n1=st.integers(20, 30),
        n2=st.integers(20, 30),
        n3=st.sampled_from([4, 8]),
        spec=st.sampled_from(["dct", "rom:3", "rom:8", "hadamard"]),
        seed=st.integers(0, 2**16),
    )
    def test_equivariance(self, kind, n1, n2, n3, spec, seed):
        fmap = METAMORPHIC_MAPS[kind]
        x, t = _instance(n1, n2, n3, spec, seed)
        base = solve(x, t)
        mapped = solve(fmap(x, seed), t)
        assert base.converged and mapped.converged
        assert rel_diff(mapped.low_rank, fmap(base.low_rank, seed)) < 1e-6
