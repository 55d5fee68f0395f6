import numpy as np
import pytest

from trpca import default_lambda, make_dct, norm, nuclear_norm, solve, tubal_rank, zeros
from trpca import synth, tensor3
from trpca import transform as transform_mod
from trpca.seeding import derive_seed
from trpca.synth import PhaseGrid, RecoveryTrialConfig


def criterion7_trial(rank_ratio, sparsity_ratio, spec="dct", trial=0, root=2024):
    """The config ``run_phase_grid`` builds for one trial of criterion 7's grid."""
    n, n3 = 30, 15
    return RecoveryTrialConfig(
        n1=n, n2=n, n3=n3, r=max(1, round(rank_ratio * n)),
        m=round(sparsity_ratio * n * n * n3), transform_spec=spec,
        seed=derive_seed(
            root, "phase-grid", f"{rank_ratio:.6g}", f"{sparsity_ratio:.6g}", trial
        ),
    )


def trial_instance(cfg):
    """The input and the truth's objective ``f0`` of ``run_recovery_trial``."""
    t = transform_mod.from_spec(cfg.transform_spec, cfg.n3)
    low0 = synth.gen_low_rank(
        cfg.n1, cfg.n2, cfg.n3, cfg.r, t, seed=derive_seed(cfg.seed, "low-rank")
    )
    sparse0 = synth.gen_sparse(
        cfg.n1, cfg.n2, cfg.n3, cfg.m, low_rank_ref=low0,
        seed=derive_seed(cfg.seed, "sparse"),
    )
    lam = default_lambda(cfg.n1, cfg.n2, t)
    return low0 + sparse0, t, nuclear_norm(low0, t) + lam * norm(sparse0, "l1")


class TestGenLowRank:
    def test_rank_zero_is_zero_tensor(self):
        t = make_dct(4)
        out = synth.gen_low_rank(5, 6, 4, 0, t, seed=1)
        assert norm(out) == 0.0

    def test_achieves_target_rank(self):
        t = make_dct(40)
        out = synth.gen_low_rank(40, 40, 40, 4, t, seed=2)
        assert tubal_rank(out, t, tol=1e-8) == 4

    def test_deterministic(self):
        t = make_dct(5)
        a = synth.gen_low_rank(6, 7, 5, 2, t, seed=9)
        b = synth.gen_low_rank(6, 7, 5, 2, t, seed=9)
        assert (a.data == b.data).all()

    def test_factor_scale_tracks_larger_dim(self):
        # factor entries have variance 1/max(n1, n2): the product of two
        # factor tensors then has entries of roughly unit scale per tube sum
        t = make_dct(3)
        out = synth.gen_low_rank(200, 50, 3, 10, t, seed=0)
        # crude variance sanity: entries should be O(sqrt(r)/sqrt(n)) scale
        assert 0.001 < np.std(out.data) < 1.0

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            synth.gen_low_rank(4, 4, 3, 5, make_dct(3), seed=0)


class TestGenSparse:
    def test_empty_support(self):
        out = synth.gen_sparse(4, 4, 4, 0, seed=1)
        assert norm(out) == 0.0

    def test_full_support_is_dense_signs(self):
        out = synth.gen_sparse(3, 4, 2, 24, seed=5)
        assert np.count_nonzero(out.data) == 24
        assert set(np.unique(out.data)) == {-1.0, 1.0}

    def test_exact_support_size_and_signs(self):
        out = synth.gen_sparse(10, 10, 5, 123, seed=3)
        vals = out.data[out.data != 0]
        assert vals.size == 123
        assert np.all(np.abs(vals) == 1.0)

    def test_deterministic(self):
        a = synth.gen_sparse(6, 6, 3, 20, seed=8)
        b = synth.gen_sparse(6, 6, 3, 20, seed=8)
        assert (a.data == b.data).all()

    def test_coherent_signs_copy_reference(self):
        t = make_dct(4)
        ref = synth.gen_low_rank(8, 8, 4, 2, t, seed=11)
        out = synth.gen_sparse(
            8, 8, 4, 60, sign_model="coherent_signs", low_rank_ref=ref, seed=12
        )
        support = out.data != 0
        assert support.sum() == 60
        np.testing.assert_array_equal(
            out.data[support], np.sign(ref.data[support])
        )

    def test_coherent_needs_reference(self):
        with pytest.raises(ValueError, match="low_rank_ref"):
            synth.gen_sparse(4, 4, 2, 5, sign_model="coherent_signs", seed=0)

    def test_support_size_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            synth.gen_sparse(2, 2, 2, 9, seed=0)


class TestSupportCount:
    def test_zero_tensor(self):
        assert synth.sparse_support_size(zeros(3, 3, 3)) == 0

    def test_relative_threshold(self):
        data = np.zeros((2, 2, 1))
        data[0, 0, 0] = 1.0
        data[1, 1, 0] = 1e-12  # below 1e-8 * max
        assert synth.sparse_support_size(tensor3.Tensor3(data)) == 1


class TestRecoveryTrial:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="rank"):
            RecoveryTrialConfig(n1=4, n2=4, n3=2, r=5, m=1)
        with pytest.raises(ValueError, match="support"):
            RecoveryTrialConfig(n1=4, n2=4, n3=2, r=1, m=100)
        with pytest.raises(ValueError, match="sign model"):
            RecoveryTrialConfig(n1=4, n2=4, n3=2, r=1, m=1, sign_model="flipped")

    def test_small_recovery_succeeds(self):
        cfg = RecoveryTrialConfig(
            n1=30, n2=30, n3=15, r=2, m=round(0.05 * 30 * 30 * 15), seed=4
        )
        rep = synth.run_recovery_trial(cfg)
        assert rep.success
        assert rep.rank_est == 2
        assert rep.rel_err_low_rank < 1e-4
        assert rep.converged

    def test_reports_are_deterministic(self):
        cfg = RecoveryTrialConfig(n1=16, n2=16, n3=8, r=2, m=100, seed=21)
        a = synth.run_recovery_trial(cfg)
        b = synth.run_recovery_trial(cfg)
        assert a.rel_err_low_rank == b.rel_err_low_rank
        assert a.rel_err_sparse == b.rel_err_sparse
        assert a.rank_est == b.rank_est

    def test_hopeless_regime_fails(self):
        # full rank plus 90% corruption is far outside the recovery regime
        cfg = RecoveryTrialConfig(
            n1=20, n2=20, n3=10, r=20, m=round(0.9 * 20 * 20 * 10), seed=2
        )
        rep = synth.run_recovery_trial(cfg)
        assert not rep.success


class TestCertifiedStop:
    """A feasible iterate below the truth's objective ends a trial as failed."""

    def test_failing_trial_is_certified_early(self):
        rep = synth.run_recovery_trial(criterion7_trial(0.15, 0.25))
        assert rep.certified_failure
        assert not rep.success and not rep.converged
        assert rep.iterations <= 60
        assert rep.rel_err_low_rank > synth.SUCCESS_REL_ERR

    def test_certificate_is_a_proof(self):
        # recomputed from the stopped iterate alone: the feasible pair
        # (L, x - L) beats the truth, so the truth is not a minimizer
        x, t, f0 = trial_instance(criterion7_trial(0.15, 0.25))
        sol = solve(x, t, floor=f0)
        assert sol.certified_failure and not sol.converged
        lam = default_lambda(x.n1, x.n2, t)
        feasible = nuclear_norm(sol.low_rank, t) + lam * norm(x - sol.low_rank, "l1")
        assert feasible < (1.0 - 1e-6) * f0

    def test_success_is_not_certified_and_unchanged(self):
        cfg = criterion7_trial(0.05, 0.05)
        x, t, f0 = trial_instance(cfg)
        floored, plain = solve(x, t, floor=f0), solve(x, t)
        assert not floored.certified_failure and floored.converged
        assert floored.iterations == plain.iterations
        assert (floored.low_rank.data == plain.low_rank.data).all()
        assert (floored.sparse.data == plain.sparse.data).all()
        rep = synth.run_recovery_trial(cfg)
        assert rep.success and not rep.certified_failure


class TestPhaseGrid:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="shape"):
            PhaseGrid((0.1,), (0.1, 0.2), 3, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="fractions"):
            PhaseGrid((0.1,), (0.1,), 3, np.array([[1.5]]))
        with pytest.raises(ValueError, match="certified matrix shape"):
            PhaseGrid((0.1,), (0.1,), 3, np.zeros((1, 1)), np.zeros((2, 1)))

    def test_deep_inside_cell_succeeds(self):
        base = RecoveryTrialConfig(n1=30, n2=30, n3=15, r=1, m=0, seed=13)
        grid = synth.run_phase_grid(base, [0.05], [0.05], trials_per_cell=3)
        assert grid.success[0, 0] == 1.0
        assert grid.certified[0, 0] == 0

    def test_deep_outside_cell_fails(self):
        base = RecoveryTrialConfig(n1=30, n2=30, n3=15, r=1, m=0, seed=13)
        grid = synth.run_phase_grid(base, [0.45], [0.45], trials_per_cell=3)
        assert grid.success[0, 0] == 0.0
        assert grid.certified[0, 0] == 3
        assert grid.certified_disagreements == 0

    def test_rejects_bad_ratios(self):
        base = RecoveryTrialConfig(n1=10, n2=10, n3=5, r=1, m=0, seed=0)
        with pytest.raises(ValueError, match="ratios"):
            synth.run_phase_grid(base, [0.0], [0.1], trials_per_cell=1)
        with pytest.raises(ValueError, match="nonempty"):
            synth.run_phase_grid(base, [], [0.1], trials_per_cell=1)
