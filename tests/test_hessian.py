import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from vqround import errors, hessian
from vqround.hessian import (
    accumulate_hessian,
    curvature_init,
    damped_inverse_factor,
    hessian_aware_init,
    residual_init,
)
from vqround.quantize import (
    RoundingSpec,
    adaptive_quantize,
    compute_quant_params,
    hard_round,
    inverse_rectified_sigmoid,
    rectified_sigmoid,
    round_half_away,
    rtn_quantize,
)

SPEC = RoundingSpec()


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(0.5, 5.0, size=n)
    return q @ np.diag(lam) @ q.T


class TestAccumulateHessian:
    def test_single_column(self):
        X = np.array([[1.0], [0.0]])
        assert np.allclose(accumulate_hessian(X), [[2.0, 0.0], [0.0, 0.0]])

    def test_identity_columns(self):
        assert np.allclose(accumulate_hessian(np.eye(2)), 2.0 * np.eye(2))

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 16))
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                for t in range(16):
                    expected[i, j] += 2.0 * X[i, t] * X[j, t]
        assert np.allclose(accumulate_hessian(X), expected, atol=1e-6)

    def test_empty_calibration(self):
        with pytest.raises(errors.EmptyCalibration):
            accumulate_hessian(np.zeros((3, 0)))

    def test_symmetric_psd(self):
        H = accumulate_hessian(np.random.default_rng(1).normal(size=(6, 30)))
        assert H.dtype == np.float64
        assert np.array_equal(H, H.T)
        assert np.all(np.linalg.eigvalsh(H) > -1e-4)


class TestDampedInverseFactor:
    def test_identity_small_damp(self):
        f = damped_inverse_factor(np.eye(3), percdamp=1e-9)
        assert np.allclose(f, np.eye(3), atol=1e-6)

    def test_scalar_case(self):
        # diag(4), damp = 0.01 * 4: factor = sqrt(1 / 4.04) ~ 0.49752
        f = damped_inverse_factor(np.array([[4.0]]), percdamp=0.01)
        assert f[0, 0] == pytest.approx(math.sqrt(1.0 / 4.04), rel=1e-9)
        assert f[0, 0] == pytest.approx(0.49752, abs=1e-5)

    def test_multiply_back_identity(self):
        H = random_spd(8, seed=2)
        f = damped_inverse_factor(H, percdamp=0.01)
        damp = 0.01 * np.mean(np.diag(H))
        target = np.linalg.inv(H + damp * np.eye(8))
        rebuilt = f.T @ f
        rel = np.linalg.norm(rebuilt - target) / np.linalg.norm(target)
        assert rel < 1e-4

    def test_upper_triangular_positive_diagonal(self):
        f = damped_inverse_factor(random_spd(5, seed=3))
        assert np.allclose(f, np.triu(f))
        assert np.all(np.diag(f) > 0)

    def test_not_positive_definite(self):
        with pytest.raises(errors.NotPositiveDefinite):
            damped_inverse_factor(-np.eye(3))

    def test_negative_definite(self):
        with pytest.raises(errors.NotPositiveDefinite):
            damped_inverse_factor(-random_spd(6, seed=11))

    def test_nan_diagonal(self):
        H = random_spd(5, seed=12)
        H[2, 2] = np.nan
        with pytest.raises(errors.NotPositiveDefinite):
            damped_inverse_factor(H)

    def test_infinite_diagonal(self):
        # Damping by an infinite mean diagonal leaves diag(inf), which
        # Cholesky factors without complaint; the factor must not.
        H = random_spd(5, seed=13)
        H[0, 0] = np.inf
        with pytest.raises(errors.NotPositiveDefinite):
            damped_inverse_factor(H)

    def test_overflowing_damping_raises_domain_error(self):
        # 1e308 * mean(diag) overflows to inf; LAPACK would factor the
        # infinite diagonal without complaint.
        with pytest.raises(errors.DomainError, match="not finite"):
            damped_inverse_factor(random_spd(4, seed=14), percdamp=1e308)

    @pytest.mark.parametrize("percdamp", [0.0, -0.01, np.nan, np.inf])
    def test_percdamp_outside_positive_finite_raises(self, percdamp):
        with pytest.raises(errors.DomainError, match="percdamp"):
            damped_inverse_factor(random_spd(4, seed=15), percdamp=percdamp)


def layer(m, n, N, seed, bits=3):
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(m, n))
    return W, rng.normal(size=(n, N)), compute_quant_params(W, bits)


class TestCurvatureInit:
    @pytest.mark.parametrize("m, n, N", [(16, 40, 64), (12, 130, 90)])
    def test_equals_stages_composed_by_hand(self, m, n, N):
        W, X, p = layer(m, n, N, seed=n)
        got, err = curvature_init(W, X, p, percdamp=0.02)
        G = X @ X.T
        want = hessian_aware_init(W, p, damped_inverse_factor((2.0 * G).astype(np.float32), 0.02))
        for name in ("w_q", "base", "h_tilde"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        # The Gram form of ||E X||_F: doubling G and halving the sum are exact.
        E = W - want.w_q
        assert err == float(np.sqrt(max(np.sum((E @ G) * E), 0.0)))
        assert err == pytest.approx(np.linalg.norm(E @ X), rel=1e-8)

    def test_overflowing_float32_raises_domain_error(self):
        # 2 X X^T is finite in float64 but overflows the float32 cast.
        W, X, p = layer(4, 8, 16, seed=2)
        with pytest.raises(errors.DomainError, match="float32"):
            curvature_init(W, 1e20 * X, p)

    @pytest.mark.parametrize("percdamp", [np.nan, np.inf])
    def test_non_finite_percdamp_raises_before_the_hessian(self, monkeypatch, percdamp):
        def accumulate(X):
            raise AssertionError("the Hessian was formed before percdamp was checked")

        monkeypatch.setattr(hessian, "accumulate_hessian", accumulate)
        W, X, p = layer(4, 8, 16, seed=3)
        with pytest.raises(errors.DomainError, match="percdamp"):
            curvature_init(W, X, p, percdamp=percdamp)

    def test_calibration_rows_must_match_weight_columns(self):
        W, X, p = layer(4, 8, 16, seed=4)
        with pytest.raises(errors.ShapeMismatch):
            curvature_init(W, X[:5], p)

    def test_calibration_is_not_held_past_the_hessian(self, monkeypatch):
        # A 12.8 MB calibration against a 32x32 Hessian: once the Hessian
        # exists, nothing the sweep starts with comes near the calibration.
        W, _, p = layer(8, 32, 1, seed=5)
        N = 50_000
        in_use = []
        sweep = hessian.hessian_aware_init

        def traced_sweep(*args):
            in_use.append(tracemalloc.get_traced_memory()[0])
            return sweep(*args)

        monkeypatch.setattr(hessian, "hessian_aware_init", traced_sweep)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            curvature_init(W, np.random.default_rng(6).normal(size=(32, N)), p)
        finally:
            tracemalloc.stop()
        assert in_use[0] - before < 32 * N * 8 / 10


class TestHessianAwareInit:
    def test_single_column_identity_factor_matches_rtn(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(5, 1))
        p = compute_quant_params(W, 4)
        res = hessian_aware_init(W, p, np.eye(1))
        _, w_rtn = rtn_quantize(W, p)
        assert np.allclose(res.w_q, w_rtn)
        # Hardening the seed reproduces the same rounding decisions.
        hb = hard_round(res.h_tilde, SPEC)
        q_adaptive, w_adaptive = adaptive_quantize(W, p, hb)
        q_rtn, _ = rtn_quantize(W, p)
        assert np.array_equal(q_adaptive, q_rtn.astype(np.float64))

    def test_grid_aligned_weights_lossless(self):
        p_scale = np.array([0.25, 0.5])
        W = p_scale[:, None] * np.array([[1.0, 3.0, 2.0], [0.0, 4.0, 1.0]])
        from vqround.quantize import QuantParams

        p = QuantParams(bits=3, scale=p_scale, zero=np.array([0, 0]))
        res = hessian_aware_init(W, p, np.eye(3))
        assert np.allclose(res.w_q, W)
        assert np.allclose(res.h_tilde, 0.0)
        assert np.array_equal(res.base, np.floor(W / p_scale[:, None]))

    @pytest.mark.parametrize("pair", [(2, 4), (1, 4), (3, 4)])
    def test_blocksize_invariance(self, monkeypatch, pair):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(4, 4))
        p = compute_quant_params(W, 4)
        factor = damped_inverse_factor(random_spd(4, seed=6))
        a, b = (sweep_with_blocksize(monkeypatch, size, W, p, factor) for size in pair)
        assert np.allclose(a.w_q, b.w_q, atol=1e-5)
        assert np.allclose(a.base, b.base, atol=1e-5)
        assert np.allclose(a.h_tilde, b.h_tilde, atol=1e-5)

    def test_blocksize_invariance_wide(self, monkeypatch):
        rng = np.random.default_rng(7)
        W = rng.normal(size=(8, 33))
        X = rng.normal(size=(33, 64))
        p = compute_quant_params(W, 4)
        factor = damped_inverse_factor(accumulate_hessian(X))
        a, b = (sweep_with_blocksize(monkeypatch, size, W, p, factor) for size in (7, 33))
        assert np.allclose(a.w_q, b.w_q, atol=1e-5)
        assert np.allclose(a.h_tilde, b.h_tilde, atol=1e-5)

    def test_seed_in_unit_interval(self):
        rng = np.random.default_rng(8)
        W = rng.normal(size=(6, 12))
        X = rng.normal(size=(12, 40))
        p = compute_quant_params(W, 3)
        res = hessian_aware_init(W, p, damped_inverse_factor(accumulate_hessian(X)))
        assert np.all((0.0 <= res.h_tilde) & (res.h_tilde <= 1.0))
        assert np.array_equal(res.base, np.round(res.base))

    def test_shape_mismatch(self):
        W = np.zeros((2, 3))
        p = compute_quant_params(W, 4)
        with pytest.raises(errors.ShapeMismatch):
            hessian_aware_init(W, p, np.eye(2))


def sweep_with_blocksize(monkeypatch, blocksize, W, p, upper):
    monkeypatch.setattr(hessian, "_BLOCKSIZE", blocksize)
    return hessian_aware_init(W, p, upper)


def oracle_factor(H, percdamp):
    """The factor-invert-refactor sequence: Cholesky of the damped
    matrix, its inverse against the identity, then the upper Cholesky
    factor of that inverse."""
    H = np.asarray(H, dtype=np.float64)
    n = H.shape[0]
    Hd = H + percdamp * float(np.mean(np.diag(H))) * np.eye(n)
    Hinv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(Hd, lower=True), np.eye(n))
    return scipy.linalg.cholesky(Hinv, lower=False)


def oracle_sweep(W, p, U, blocksize):
    """Column by column over W as given: each column's error updates every
    later column of its block with a rank-one outer product, and the
    later blocks with one product per block."""
    W = np.asarray(W, dtype=np.float64).copy()
    m, n = W.shape
    s, z, q_max = p.scale, p.zero.astype(np.float64), float(p.q_max)
    w_q, base, h_tilde = np.zeros((m, n)), np.zeros((m, n)), np.zeros((m, n))
    for i1 in range(0, n, blocksize):
        i2 = min(i1 + blocksize, n)
        W1, U1 = W[:, i1:i2], U[i1:i2, i1:i2]
        err_block = np.zeros((m, i2 - i1))
        for j in range(i2 - i1):
            w = W1[:, j].copy()
            qi = np.clip(round_half_away(w / s) + z, 0.0, q_max)
            q = s * (qi - z)
            w_q[:, i1 + j] = q
            err = (w - q) / U1[j, j]
            W1[:, j:] -= np.outer(err, U1[j, j:])
            err_block[:, j] = err
            u = w / s
            b = np.floor(u)
            base[:, i1 + j] = b
            h_tilde[:, i1 + j] = np.clip(u - b - err / s, 0.0, 1.0)
        if i2 < n:
            W[:, i2:] -= err_block @ U[i1:i2, i2:]
    return w_q, base, h_tilde


# name -> (m, n, N, x_scale). n = 300 spans three blocks of 128, and
# neither 300 nor 45 is a multiple of 7. N < n leaves X X^T singular, so
# only the damping makes it positive definite. x_scale = 1 gives every
# curvature d = upper[j, j] < 1, which pins h_tilde to exactly 0 or 1;
# x_scale = 0.05 gives d > 1 and a soft h_tilde.
SWEEP_CASES = {
    "wide-rank-deficient": (37, 300, 200, 1.0),
    "tall-full-rank": (64, 45, 180, 1.0),
    "soft-seed": (20, 45, 60, 0.05),
}


def sweep_inputs(case, bits):
    m, n, N, x_scale = SWEEP_CASES[case]
    rng = np.random.default_rng([m, n, N, bits])
    W = rng.normal(size=(m, n))
    H = accumulate_hessian(x_scale * rng.normal(size=(n, N)))
    return W, compute_quant_params(W, bits), H


class TestSweepOracle:
    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_factor_matches_refactored_inverse(self, case):
        _, _, H = sweep_inputs(case, 3)
        want = oracle_factor(H, 0.01)
        got = damped_inverse_factor(H, percdamp=0.01)
        assert np.array_equal(got, np.triu(got))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("blocksize", [1, 7, 128])
    @pytest.mark.parametrize("bits", [3, 4, 8])
    @pytest.mark.parametrize("case", ["wide-rank-deficient", "tall-full-rank"])
    def test_outputs_equal_oracle(self, monkeypatch, case, bits, blocksize):
        # Both sides take their own factor. The compensated weights agree
        # to rounding, and with every d < 1 no rounding reaches the outputs.
        W, p, H = sweep_inputs(case, bits)
        factor = damped_inverse_factor(H)
        assert np.all(np.diag(factor) < 1.0)
        want = oracle_sweep(W, p, oracle_factor(H, 0.01), blocksize)
        got = sweep_with_blocksize(monkeypatch, blocksize, W, p, factor)
        assert np.array_equal(got.w_q, want[0])
        assert np.array_equal(got.base, want[1])
        assert np.array_equal(got.h_tilde, want[2])
        assert set(np.unique(got.h_tilde)) <= {0.0, 1.0}

    @pytest.mark.parametrize("blocksize", [1, 7, 128])
    @pytest.mark.parametrize("bits", [3, 8])
    def test_soft_seed_within_rounding_of_oracle(self, monkeypatch, bits, blocksize):
        W, p, H = sweep_inputs("soft-seed", bits)
        w_q, base, h_tilde = oracle_sweep(W, p, oracle_factor(H, 0.01), blocksize)
        got = sweep_with_blocksize(monkeypatch, blocksize, W, p, damped_inverse_factor(H))
        live = (h_tilde > 0.0) & (h_tilde < 1.0)
        assert live.mean() > 0.1
        assert np.array_equal(got.w_q, w_q)
        assert np.array_equal(got.base, base)
        assert np.max(np.abs(got.h_tilde - h_tilde)) <= 1e-12


class TestResidualInit:
    def test_positive(self):
        from vqround.quantize import QuantParams

        p = QuantParams(bits=4, scale=np.array([1.0]), zero=np.array([0]))
        assert residual_init(np.array([[2.7]]), p)[0, 0] == pytest.approx(0.7)

    def test_negative_uses_floor(self):
        from vqround.quantize import QuantParams

        p = QuantParams(bits=4, scale=np.array([1.0]), zero=np.array([0]))
        assert residual_init(np.array([[-0.3]]), p)[0, 0] == pytest.approx(0.7)

    def test_on_grid(self):
        from vqround.quantize import QuantParams

        p = QuantParams(bits=4, scale=np.array([0.5]), zero=np.array([0]))
        assert residual_init(np.array([[1.5]]), p)[0, 0] == 0.0

    def test_matches_hessian_init_with_identity_factor_single_column(self):
        rng = np.random.default_rng(10)
        W = rng.normal(size=(4, 1))
        p = compute_quant_params(W, 4)
        res = hessian_aware_init(W, p, np.eye(1))
        # With d = 1 and one column: seed = clip(resid - (w - q)/s, 0, 1),
        # which hardens to the same decisions as the plain residual.
        plain = residual_init(W, p)
        assert np.array_equal(
            hard_round(res.h_tilde, SPEC), hard_round(plain, SPEC)
        )
