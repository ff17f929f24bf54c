import numpy as np
import pytest

from vqround import errors
from vqround.analysis import (
    LIPSCHITZ,
    budgeted_approximations,
    clipping_check,
    compare_methods,
    error_histograms,
    margins,
    singular_spectrum,
    tail_transfer,
    theory_report,
    verify_lipschitz,
)
from vqround.quantize import inverse_rectified_sigmoid, rectified_sigmoid


class TestLipschitzConstant:
    def test_default_stretch(self):
        assert LIPSCHITZ == pytest.approx(0.3)


class TestVerifyLipschitz:
    def test_identical_inputs(self):
        A = np.random.default_rng(0).normal(size=(4, 4))
        check = verify_lipschitz(A, A)
        assert np.isnan(check.max_elementwise_ratio)

    def test_bound_tight_at_origin(self):
        # The slope peaks at the origin: 1.2 * sigma'(0) = 0.3.
        eps = 1e-6
        check = verify_lipschitz(np.array([[0.0]]), np.array([[eps]]))
        assert check.max_elementwise_ratio == pytest.approx(0.3, abs=1e-3)

    def test_monte_carlo_sweep(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=10**5)
        At = rng.normal(size=10**5)
        check = verify_lipschitz(A.reshape(250, 400), At.reshape(250, 400))
        assert check.max_elementwise_ratio <= 0.3 + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            verify_lipschitz(np.zeros((2, 2)), np.zeros((2, 3)))


class TestMargins:
    def test_center(self):
        assert margins(np.array([[0.0]]))[0, 0] == pytest.approx(0.5)

    def test_near_boundary(self):
        # Latent preimage of 0.9 sits 0.1 from the upper boundary.
        a = inverse_rectified_sigmoid(np.array([[0.9]]))
        assert margins(a)[0, 0] == pytest.approx(0.1, rel=1e-9)

    def test_saturated_is_zero(self):
        assert margins(np.array([[20.0]]))[0, 0] == 0.0

    def test_interior_range(self):
        rng = np.random.default_rng(1)
        delta = margins(rng.normal(size=(10, 10)))
        assert np.all((0.0 <= delta) & (delta <= 0.5))


class TestClippingCheck:
    def test_identical_inputs_no_clipping(self):
        A = np.random.default_rng(2).normal(size=(8, 8))
        check = clipping_check(A, A)
        assert check.clip_rate == 0.0

    def test_large_displacement_saturates(self):
        # g(10) = -0.1 + 1.2*sigma(10) > 1: clipped.
        check = clipping_check(np.array([[0.0]]), np.array([[10.0]]))
        assert check.clip_rate == 1.0
        assert check.clip_bound == 1.0

    def test_displacement_beyond_margin_need_not_saturate(self):
        # Known interior counterexample to the converse direction:
        # from A=0 (margin 0.5, so margin/L = 5/3) a displacement of 2
        # lands at g(2) ~ 0.957, still interior. The per-entry assertion
        # therefore runs as saturation => displacement, never the
        # reverse; this pin fails if that orientation changes.
        check = clipping_check(np.array([[0.0]]), np.array([[2.0]]))
        assert check.clip_rate == 0.0
        assert check.clip_bound == 1.0

    def test_monte_carlo_rate_bounded(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(400, 250))
        At = A + rng.normal(scale=3.0, size=A.shape)
        check = clipping_check(A, At)
        assert check.clip_rate <= check.clip_bound + 1e-12
        assert 0.0 < check.clip_rate < 1.0


class TestTailTransfer:
    def test_epsilon_above_max_is_zero(self):
        dA = np.array([0.5, -0.2])
        dH = np.array([0.1, -0.05])
        rows = tail_transfer(dA, dH, [1.0], 0.3)
        assert rows[0][1] == 0.0

    def test_tiny_epsilon_counts_nonzero_entries(self):
        dA = np.array([0.5, 0.0, -0.2])
        dH = np.array([0.1, 0.0, -0.05])
        rows = tail_transfer(dA, dH, [1e-12], 0.3)
        assert rows[0][1] == pytest.approx(2.0 / 3.0)
        assert rows[0][2] == pytest.approx(2.0 / 3.0)

    def test_gaussian_sweep_ordering(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=50_000)
        At = A + rng.normal(size=A.size)
        dA = At - A
        dH = rectified_sigmoid(At) - rectified_sigmoid(A)
        rows = tail_transfer(dA, dH, np.linspace(0.01, 1.0, 20), 0.3)
        for _, lhs, rhs in rows:
            assert lhs <= rhs

    def test_fabricated_violation_raises(self):
        # Deltas that break the contraction must be caught.
        with pytest.raises(errors.TheoremViolation):
            tail_transfer(np.array([0.1]), np.array([0.9]), [0.5], 0.3)


class TestTheoryReport:
    def test_fields_populated(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(32, 32))
        At = A + 0.1 * rng.normal(size=A.shape)
        rep = theory_report(A, At)
        assert rep.lipschitz_L == pytest.approx(0.3)
        assert len(rep.epsilon_grid) == 20
        assert all(l <= r for l, r in zip(rep.tail_lhs, rep.tail_rhs))
        assert rep.clip_rate <= rep.clip_bound + 1e-12


class TestErrorHistograms:
    def test_exact_approximation_masses_zero_bin(self):
        A = np.random.default_rng(6).normal(size=(8, 8))
        rep = error_histograms(A, {"exact": A.copy()}, bins=9)
        dens = rep.densities_delta_a["exact"]
        widths = np.diff(rep.edges_delta_a)
        mass = dens * widths
        zero_bin = np.searchsorted(rep.edges_delta_a, 0.0) - 1
        assert mass[zero_bin] == pytest.approx(1.0)

    def test_densities_integrate_to_one(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(16, 16))
        At = A + 0.3 * rng.normal(size=A.shape)
        rep = error_histograms(A, {"m": At}, bins=32)
        for edges, dens in (
            (rep.edges_delta_a, rep.densities_delta_a["m"]),
            (rep.edges_delta_h, rep.densities_delta_h["m"]),
        ):
            assert np.sum(dens * np.diff(edges)) == pytest.approx(1.0, abs=1e-6)

    def test_vq_zero_bin_beats_lowrank(self, heavy_tail_sweep):
        # Budget-matched comparison on heavy-tailed latents: the
        # codebook keeps more error mass at zero than the rank-matched
        # truncation in at least 8 of 10 seeds.
        wins = 0
        for A, approx in heavy_tail_sweep:
            rep = error_histograms(
                A, {m: a for m, (_, a) in approx.items()}, bins=64
            )
            zb = np.searchsorted(rep.edges_delta_a, 0.0) - 1
            wins += (
                rep.densities_delta_a["vq"][zb] > rep.densities_delta_a["lowrank"][zb]
            )
        assert wins >= 8


class TestSingularSpectrum:
    def test_identity(self):
        assert np.allclose(singular_spectrum(np.eye(5)), np.ones(5))

    def test_diagonal(self):
        assert np.allclose(singular_spectrum(np.diag([3.0, 2.0, 1.0])), [3.0, 2.0, 1.0])

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        s = singular_spectrum(np.outer(u, v))
        assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
        assert np.allclose(s[1:], 0.0, atol=1e-12)

    def test_descending(self):
        s = singular_spectrum(np.random.default_rng(8).normal(size=(10, 7)))
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)


class TestInfNormComparison:
    def test_exact_methods_reach_zero(self):
        # Budget large enough for a full-rank truncation and a
        # one-centroid-per-block codebook: both are exact.
        A = np.random.default_rng(9).normal(size=(8, 8))
        approx = budgeted_approximations(A, 128, d=8, kmeans_iters=30, seed=0)
        rows = {r.method: r for r in compare_methods(A, approx)}
        assert rows["lowrank"].norm_fro == pytest.approx(0.0, abs=1e-9)
        assert rows["vq"].norm_fro == pytest.approx(0.0, abs=1e-9)

    def test_norm_chain_on_random_instances(self):
        for seed in range(5):
            A = np.random.default_rng(seed).normal(size=(16, 16))
            approx = budgeted_approximations(A, 64, d=4, kmeans_iters=20, seed=seed)
            for row in compare_methods(A, approx):
                assert row.norm_inf <= row.norm_2 + 1e-9
                assert row.norm_2 <= row.norm_fro + 1e-9

    def test_budget_infeasible(self):
        with pytest.raises(errors.BudgetInfeasible):
            budgeted_approximations(np.zeros((64, 64)), 4, d=8)

    @pytest.mark.parametrize("d", [0, -8])
    def test_non_positive_block_length(self, d):
        with pytest.raises(errors.DomainError, match="block length"):
            budgeted_approximations(np.zeros((8, 8)), 64, d=d)

    def test_params_within_budget(self):
        A = np.random.default_rng(10).normal(size=(16, 16))
        for row in compare_methods(A, budgeted_approximations(A, 80, d=4, kmeans_iters=10,
                                                              seed=0)):
            assert row.params <= 80

    def test_compare_methods_validates_chain(self):
        A = np.zeros((2, 2))
        approx = {"fake": (1, A.copy())}
        rows = compare_methods(A, approx)
        assert rows[0].norm_fro == 0.0

    def test_reported_norms_are_those_of_the_error_matrix(self):
        # Against zeros the error matrix is A itself, bit for bit. The
        # diagonal one has known norms: max-abs 4, spectral 4, Frobenius 5.
        for E in (np.random.default_rng(12).standard_t(3, size=(24, 40)), np.diag([3.0, -4.0])):
            (row,) = compare_methods(E, {"zeros": (7, np.zeros_like(E))})
            assert (row.method, row.params) == ("zeros", 7)
            assert row.norm_inf == np.max(np.abs(E))
            assert row.norm_2 == np.linalg.norm(E, 2)
            assert row.norm_fro == np.linalg.norm(E, "fro")
        assert (row.norm_inf, row.norm_2, row.norm_fro) == pytest.approx((4.0, 4.0, 5.0))
