import math

import numpy as np
import pytest

from vqround import errors
from vqround.hessian import (
    HessianConfig,
    HessianFactor,
    accumulate_hessian,
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
        assert np.allclose(H, H.T)
        assert np.all(np.linalg.eigvalsh(H.astype(np.float64)) > -1e-4)


class TestDampedInverseFactor:
    def test_identity_small_damp(self):
        f = damped_inverse_factor(np.eye(3), HessianConfig(percdamp=1e-9))
        assert np.allclose(f.upper, np.eye(3), atol=1e-6)

    def test_scalar_case(self):
        # diag(4), damp = 0.01 * 4: factor = sqrt(1 / 4.04) ~ 0.49752
        f = damped_inverse_factor(np.array([[4.0]]), HessianConfig(percdamp=0.01))
        assert f.upper[0, 0] == pytest.approx(math.sqrt(1.0 / 4.04), rel=1e-9)
        assert f.upper[0, 0] == pytest.approx(0.49752, abs=1e-5)

    def test_multiply_back_identity(self):
        H = random_spd(8, seed=2)
        cfg = HessianConfig(percdamp=0.01)
        f = damped_inverse_factor(H, cfg)
        damp = cfg.percdamp * np.mean(np.diag(H))
        target = np.linalg.inv(H + damp * np.eye(8))
        rebuilt = f.upper.T @ f.upper
        rel = np.linalg.norm(rebuilt - target) / np.linalg.norm(target)
        assert rel < 1e-4

    def test_upper_triangular_positive_diagonal(self):
        f = damped_inverse_factor(random_spd(5, seed=3))
        assert np.allclose(f.upper, np.triu(f.upper))
        assert np.all(np.diag(f.upper) > 0)

    def test_not_positive_definite(self):
        with pytest.raises(errors.NotPositiveDefinite):
            damped_inverse_factor(-np.eye(3))


class TestHessianAwareInit:
    def test_single_column_identity_factor_matches_rtn(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(5, 1))
        p = compute_quant_params(W, 4)
        res = hessian_aware_init(W, p, HessianFactor(upper=np.eye(1)))
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
        res = hessian_aware_init(W, p, HessianFactor(upper=np.eye(3)))
        assert np.allclose(res.w_q, W)
        assert np.allclose(res.h_tilde, 0.0)
        assert np.array_equal(res.base, np.floor(W / p_scale[:, None]))

    @pytest.mark.parametrize("pair", [(2, 4), (1, 4), (3, 4)])
    def test_blocksize_invariance(self, pair):
        rng = np.random.default_rng(5)
        W = rng.normal(size=(4, 4))
        p = compute_quant_params(W, 4)
        factor = damped_inverse_factor(random_spd(4, seed=6))
        a = hessian_aware_init(W, p, factor, HessianConfig(blocksize=pair[0]))
        b = hessian_aware_init(W, p, factor, HessianConfig(blocksize=pair[1]))
        assert np.allclose(a.w_q, b.w_q, atol=1e-5)
        assert np.allclose(a.base, b.base, atol=1e-5)
        assert np.allclose(a.h_tilde, b.h_tilde, atol=1e-5)

    def test_blocksize_invariance_wide(self):
        rng = np.random.default_rng(7)
        W = rng.normal(size=(8, 33))
        X = rng.normal(size=(33, 64))
        p = compute_quant_params(W, 4)
        factor = damped_inverse_factor(accumulate_hessian(X))
        a = hessian_aware_init(W, p, factor, HessianConfig(blocksize=7))
        b = hessian_aware_init(W, p, factor, HessianConfig(blocksize=33))
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
            hessian_aware_init(W, p, HessianFactor(upper=np.eye(2)))


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
        res = hessian_aware_init(W, p, HessianFactor(upper=np.eye(1)))
        # With d = 1 and one column: seed = clip(resid - (w - q)/s, 0, 1),
        # which hardens to the same decisions as the plain residual.
        plain = residual_init(W, p)
        assert np.array_equal(
            hard_round(res.h_tilde, SPEC), hard_round(plain, SPEC)
        )
