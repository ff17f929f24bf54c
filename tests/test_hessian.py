import hashlib
import math
import mmap
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from pools import counted_submits, drain_pool, refuse_pool, two_cores
from vqround import distill, errors, hessian, parallel
from vqround.hessian import (
    accumulate_hessian,
    curvature_init,
    damped_inverse_factor,
    hessian_aware_init,
    residual_init,
)
from vqround.quantize import (
    QuantParams,
    adaptive_quantize,
    compute_quant_params,
    hard_round,
    inverse_rectified_sigmoid,
    rectified_sigmoid,
    round_half_away,
    rtn_quantize,
)


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

    def test_empty_matrix_is_refused(self):
        # The finiteness check took the extremes of an empty array, which
        # raised numpy's ValueError.
        with pytest.raises(errors.ShapeMismatch, match="at least one row"):
            damped_inverse_factor(np.zeros((0, 0)))

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

    def test_recon_err_that_is_not_finite_is_refused(self):
        # The outputs are finite, but <E H, E> is not: max(nan, 0.0) was nan.
        W, X, p = layer(8, 16, 32, seed=7)
        W = 1e200 * W
        p = compute_quant_params(W, 3)
        result = hessian_aware_init(W, p, damped_inverse_factor(
            accumulate_hessian(X).astype(np.float32)))
        assert all(np.isfinite(getattr(result, name)).all() for name in ("w_q", "base", "h_tilde"))
        with pytest.raises(errors.OutOfRange, match="not finite"):
            curvature_init(W, X, p)

    def test_base_beyond_float32_integers_keeps_its_bytes(self):
        # Calibration rows ten times smaller each, all near one direction,
        # with damping 1e-16: the sweep pushes some compensated weights
        # past 2^24 grid steps, where float32 no longer holds every
        # integer. The floor and the fraction are taken in float64, so
        # h_tilde keeps its bytes and base is the float64 floor rounded
        # to float32, as its file always held it. Figures recorded with a
        # float64 base.
        rng = np.random.default_rng(31)
        m, n, N = 8, 16, 64
        W = rng.normal(size=(m, n)).astype(np.float32)
        X = 0.1 ** np.arange(n)[:, None] * (rng.normal(size=N) + 0.1 * rng.normal(size=(n, N)))
        got, err = curvature_init(W, X.astype(np.float32), compute_quant_params(W, 4), 1e-16)
        assert got.base.dtype == np.float32
        assert np.sum(np.abs(got.base) >= 2**24) == 12
        digest = {name: hashlib.sha256(getattr(got, name).tobytes()).hexdigest()
                  for name in ("w_q", "base", "h_tilde")}
        assert digest == {
            "w_q": "03a19da724bb4d10b315ab687d398f10826c9d38359656062135f596ffb0fbe0",
            "base": "a6dbb3c05da4da70d14104ac71c31950406c70c5b738be8c1557ec0fae77915a",
            "h_tilde": "1575826eef50e2ed5c4c2feb799200e4d75151dc813d52b845c9430431cb1967",
        }
        assert err.hex() == "0x1.d20d12012b700p-1"

    def test_calibration_rows_must_match_weight_columns(self):
        W, X, p = layer(4, 8, 16, seed=4)
        with pytest.raises(errors.ShapeMismatch):
            curvature_init(W, X[:5], p)

    def test_layer_with_no_columns_is_refused(self):
        # The float32 factor's finiteness check took the extremes of an
        # empty Hessian, which raised numpy's ValueError.
        p = QuantParams(bits=3, scale=np.ones(4), zero=np.zeros(4))
        with pytest.raises(errors.ShapeMismatch, match="no columns"):
            curvature_init(np.zeros((4, 0)), np.zeros((0, 16)), p)

    def test_layer_with_no_rows_has_no_error(self):
        p = QuantParams(bits=3, scale=np.ones(0), zero=np.zeros(0))
        X = np.random.default_rng(8).normal(size=(16, 32))
        result, err = curvature_init(np.zeros((0, 16)), X, p)
        assert result.w_q.shape == result.base.shape == result.h_tilde.shape == (0, 16)
        assert err == 0.0

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

    def test_float32_calibration_is_freed_before_the_hessian(self, monkeypatch):
        # A 6.4 MB float32 calibration passed straight in: the Hessian
        # products run beside its float64 copy only.
        W, _, p = layer(8, 32, 1, seed=5)
        N = 50_000
        at_entry, peaks = [], []
        accumulate = hessian.accumulate_hessian

        def traced_accumulate(X):
            at_entry.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            H = accumulate(X)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return H

        monkeypatch.setattr(hessian, "accumulate_hessian", traced_accumulate)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            curvature_init(W, np.random.default_rng(6).normal(size=(32, N)).astype(np.float32), p)
        finally:
            tracemalloc.stop()
        copy = 32 * N * 8
        assert copy <= at_entry[0] - before <= copy + 2**20
        assert peaks[0] - before <= copy + 2**20


class TestHessianAwareInit:
    def test_single_column_identity_factor_matches_rtn(self):
        rng = np.random.default_rng(4)
        W = rng.normal(size=(5, 1))
        p = compute_quant_params(W, 4)
        res = hessian_aware_init(W, p, np.eye(1))
        _, w_rtn = rtn_quantize(W, p)
        assert np.allclose(res.w_q, w_rtn)
        # Hardening the seed reproduces the same rounding decisions.
        hb = hard_round(res.h_tilde)
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

    @pytest.mark.parametrize("n, bad", [(16, "zeros"), (16, "nan"), (16, "negative-diagonal"),
                                        (300, "inf-in-last-block-row"), (300, "zero-on-diagonal")])
    def test_bad_factor_is_refused_before_the_first_column(self, monkeypatch, n, bad):
        # All-zero and all-NaN factors gave all-NaN w_q and h_tilde.
        W, _, p = layer(4, n, 1, seed=n)
        factor = {
            "zeros": np.zeros((n, n)),
            "nan": np.full((n, n), np.nan),
            "negative-diagonal": -np.eye(n),
            "inf-in-last-block-row": np.eye(n) + np.triu(np.full((n, n), np.inf), n - 3),
            "zero-on-diagonal": np.diag(np.arange(n) != 200).astype(np.float64),
        }[bad]

        def no_column(x):
            raise AssertionError("a column was swept")

        monkeypatch.setattr(hessian, "round_half_away", no_column)
        with pytest.raises(errors.NotPositiveDefinite, match="finite with a positive diagonal"):
            hessian_aware_init(W, p, factor)


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

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_base_is_the_float64_floor_in_float32(self, case):
        # The oracle floors its compensated weights in float64.
        W, p, H = sweep_inputs(case, 4)
        base = oracle_sweep(W, p, oracle_factor(H, 0.01), 128)[1]
        got = hessian_aware_init(W, p, damped_inverse_factor(H)).base
        assert got.dtype == np.float32 and got.shape == W.shape
        assert np.array_equal(got.astype(np.float64), base)

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
            hard_round(res.h_tilde), hard_round(plain)
        )


def assert_within_sum_bound(got, E, H):
    """``got`` lies within m·n·eps·Σ|(E H) ∘ E| of ``np.sum((E @ H) * E)``.

    Any order of adding m·n terms lies within half that of the exact
    sum, so any two orders lie within it of each other."""
    P = (E @ H) * E
    assert abs(got - np.sum(P)) <= P.size * np.finfo(np.float64).eps * np.sum(np.abs(P))


# Row counts that are and are not multiples of the chunk, one chunk or
# many; at 128 rows a chunk, 2049x128 and 1x4096 end in a one-row chunk.
SUM_SHAPES = [(640, 768), (512, 2048), (256, 256), (64, 385), (1000, 24), (517, 700),
              (2049, 128), (1, 4096), (3, 129), (7, 8)]


class TestErrorForm:
    @pytest.mark.parametrize("shape", SUM_SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_chunk_sums_are_the_product_sum_in_some_order(self, monkeypatch, shape):
        W, X, p = layer(*shape, 64, seed=sum(shape))
        result, _ = curvature_init(W, X, p)
        H = accumulate_hessian(X)
        for chunk in (1, 3, 16, 128):
            monkeypatch.setattr(hessian, "_CHUNK_ROWS", chunk)
            assert_within_sum_bound(hessian._error_form(W, result.w_q, H), W - result.w_q, H)

    @pytest.mark.parametrize("m, n", [(517, 700), (2049, 128)])
    def test_unaligned_layers_split_with_the_bytes_of_one_core(self, monkeypatch, m, n):
        # Neither is a multiple of 128 in every dimension, and 2049 rows
        # end in a one-row chunk; the halves take the same chunks on one
        # core and on two. The gate comes down to 2049x128's work.
        W, X, p = layer(m, n, 256, seed=m + n)
        result, _ = curvature_init(W, X, p)
        H = accumulate_hessian(X)
        monkeypatch.setattr(hessian, "_SPLIT_WORK", min(hessian._SPLIT_WORK, m * n * n))
        want = inline(monkeypatch, hessian._error_form, W, result.w_q, H)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        got = hessian._error_form(W, result.w_q, H)
        assert len(calls) == 2
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("chunk", [2, 16, 128, 10**6])
    @pytest.mark.parametrize("m, n, N", [(640, 768, 256), (512, 768, 256)])
    def test_recon_err_equals_the_whole_product_sum(self, monkeypatch, m, n, N, chunk):
        # Above the gates, rows of E @ H taken 2 or more at a time are the
        # whole product's rows. At 128 rows a chunk these layers' sums
        # come out as the single product's, and one chunk of every row is
        # that product; other chunks add in other orders.
        monkeypatch.setattr(hessian, "_CHUNK_ROWS", chunk)
        W, X, p = layer(m, n, N, seed=m + n)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        result, err = curvature_init(W, X, p)
        assert len(calls) == 2 + lookahead_tasks(n) + 2
        E, H = W - result.w_q, accumulate_hessian(X)
        total = hessian._error_form(W, result.w_q, H)
        assert err == float(np.sqrt(max(total / 2, 0.0)))
        if chunk in (128, 10**6):
            assert total == np.sum((E @ H) * E)
        else:
            assert_within_sum_bound(total, E, H)

    def test_pieces_under_rapid_thread_switches(self, monkeypatch):
        # Each task writes its own buffers and its own sum; with 16-row
        # pieces and a 1 us switch interval, a mixed-up buffer or sum
        # would show in the bytes.
        monkeypatch.setattr(hessian, "_CHUNK_ROWS", 16)
        W, X, p = layer(640, 768, 256, seed=63)
        result, _ = curvature_init(W, X, p)
        H = accumulate_hessian(X)
        want = inline(monkeypatch, hessian._error_form, W, result.w_q, H)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [hessian._error_form(W, result.w_q, H) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 6
        assert [g.hex() for g in got] == [want.hex()] * 3

    @pytest.mark.parametrize("m, n, N, err_hex", [
        (512, 768, 256, "0x1.0f1b96a4e5ec8p+10"),
        (640, 768, 1024, "0x1.216f9dc103ac8p+12"),
    ])
    def test_recon_err_bytes_are_pinned(self, m, n, N, err_hex):
        # Recorded before recon_err was taken by chunks.
        rng = np.random.default_rng([m, n, N])
        W = rng.normal(size=(m, n))
        X = rng.normal(size=(n, N))
        assert curvature_init(W, X, compute_quant_params(W, 3))[1].hex() == err_hex


def traced_peak(fn, *args):
    """Peak traced bytes one call of ``fn`` holds above what is in use
    when it starts, measured after one warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def block_rows_bytes(n):
    return sum(8 * (min(i1 + 128, n) - i1) * (n - i1) for i1 in range(0, n, 128))


def mapping(block_row):
    """The anonymous mapping a block row of the sweep lives in."""
    base = block_row.base
    while not isinstance(base, mmap.mmap):
        base = base.obj if isinstance(base, memoryview) else base.base
    return base


# A sweep in a fresh interpreter: the rise of its resident set across
# hessian_aware_init, which keeps its outputs and frees the rest. The
# caller keeps the factor, so its release does not offset the rise.
SWEEP_RSS = """
import os
import numpy as np
from vqround.hessian import accumulate_hessian, damped_inverse_factor, hessian_aware_init
from vqround.quantize import compute_quant_params

def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

rng = np.random.default_rng(0)
W = rng.normal(size=({m}, {n}))
p = compute_quant_params(W, 3)
factor = damped_inverse_factor(accumulate_hessian(rng.normal(size=({n}, {N}))))
before = rss()
result = hessian_aware_init(W, p, factor)
print(rss() - before)
"""


class TestInitMemory:
    """The init holds its outputs, H and O(_BLOCKSIZE (m + n)) buffers: no
    fourth m x n array in the sweep, no n x n factor beside the block
    rows, no m x n array in recon_err. tracemalloc cannot see the block
    rows, which live in mappings of their own, so its bounds leave them
    out; the tests after those check that the block rows go back to the
    OS as the sweep passes them."""

    M, N = 512, 768

    def buffers(self, m, n):
        return 2 * hessian._BLOCKSIZE * (m + n) * 8

    def test_sweep_holds_three_layer_arrays(self):
        # Two float64 arrays and the float32 base: 2.5 float64 arrays.
        W, X, p = layer(self.M, self.N, 2 * self.N, seed=60)
        factor = damped_inverse_factor(accumulate_hessian(X))
        peak = traced_peak(hessian_aware_init, W, p, factor)
        assert peak <= 2.5 * W.nbytes + self.buffers(self.M, self.N)

    def test_curvature_init_holds_no_factor_beside_its_block_rows(self):
        W, X, p = layer(self.M, self.N, 64, seed=61)
        peak = traced_peak(curvature_init, W, X, p)
        H_bytes = self.N * self.N * 8
        assert peak <= H_bytes + 3 * W.nbytes + self.buffers(self.M, self.N)

    def test_block_rows_are_unmapped_as_the_sweep_passes(self, monkeypatch):
        # Two cores, above every gate: four block updates on the pool.
        W, X, p = layer(*ABOVE_GATES, seed=65)
        refs, first_alive = [], []
        block_rows, subtract = hessian._block_rows, hessian._subtract_product

        def traced_block_rows(U):
            panels = block_rows(U)
            refs.extend(weakref.ref(mapping(P)) for P in panels)
            return panels

        def traced_subtract(*args):
            # The calling thread's update of the next block's rows, when
            # no earlier update is left on the pool.
            if threading.current_thread() is threading.main_thread():
                drain_pool()
                first_alive.append(refs[0]() is not None)
            subtract(*args)

        two_cores(monkeypatch)
        monkeypatch.setattr(hessian, "_block_rows", traced_block_rows)
        monkeypatch.setattr(hessian, "_subtract_product", traced_subtract)
        hessian_aware_init(W, p, damped_inverse_factor(accumulate_hessian(X)))
        drain_pool()
        blocks = ABOVE_GATES[1] // hessian._BLOCKSIZE
        assert len(refs) == blocks
        # Block 0's mapping goes once its update is done, before block 1's.
        assert first_alive == [True] + [False] * (blocks - 2)
        assert [r() for r in refs] == [None] * blocks

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_sweep_gives_its_block_rows_back_to_the_os(self, tmp_path):
        m = n = 1536
        assert block_rows_bytes(n) >= 8 * 2**20
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(hessian.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", SWEEP_RSS.format(m=m, n=n, N=2 * n)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs = m * n * (8 + 8 + 4)
        assert int(proc.stdout) <= outputs + self.buffers(m, n) + 2 * 2**20

    def test_factor_is_lapacks_buffer(self):
        # One n x n float64 buffer, factored and inverted in place and
        # returned as a view: no row-major copy beside it.
        n = 768
        X = np.random.default_rng(64).normal(size=(n, 2 * n))
        H32 = accumulate_hessian(X).astype(np.float32)
        peak = traced_peak(damped_inverse_factor, H32)
        assert peak <= 1.1 * n * n * 8

    def test_recon_err_adds_only_its_chunk_buffers(self, monkeypatch):
        # 1024 rows: two tasks of 512 rows, each by pieces of 128.
        m, n = 1024, self.N
        W, X, p = layer(m, n, 64, seed=62)
        marks = []
        sweep = hessian.hessian_aware_init

        def traced_sweep(W, p, upper):
            result = sweep(W, p, upper)
            # Nothing else holds the factor now, so it goes here.
            del upper
            marks.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(hessian, "hessian_aware_init", traced_sweep)
        tracemalloc.start()
        try:
            curvature_init(W, X, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two tasks, each with E and E @ H buffers; _tiled_copy's ufunc
        # buffers add about 100 KB per task.
        chunks = 2 * 2 * hessian._CHUNK_ROWS * n * 8
        assert peak - marks[0] <= chunks + 2**19


class Boom(Exception):
    pass


def lower_gates(monkeypatch):
    """Split every product and look ahead in every sweep, whatever the shape."""
    for name in ("_SPLIT_WORK", "_LOOKAHEAD_ROWS", "_LOOKAHEAD_COLUMNS"):
        monkeypatch.setattr(hessian, name, 0)
    monkeypatch.setattr(hessian, "_SPLIT_ALIGN", 1)


def inline(monkeypatch, fn, *args):
    """``fn(*args)`` on one usable core, where no task may reach the pool."""
    with monkeypatch.context() as m:
        m.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
        refuse_pool(m)
        return fn(*args)


def lookahead_tasks(n):
    # Every block but the last two hands the rows after the next block
    # to the pool.
    return max(0, -(-n // 128) - 2)


def assert_same_init(got, want):
    for name in ("w_q", "base", "h_tilde"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def assert_close_init(got, plain):
    # The pieces round apart from the single products in the last bits
    # only: no decision moves, and the soft seed stays within rounding.
    assert np.array_equal(got.w_q, plain.w_q)
    assert np.array_equal(got.base, plain.base)
    assert np.allclose(got.h_tilde, plain.h_tilde, rtol=0, atol=1e-9)


def soft_layer(m, n, N, seed):
    # Calibration scaled to 0.05 gives curvatures d > 1 and so a soft
    # h_tilde, whose bytes show any change in the compensated weights.
    W, X, p = layer(m, n, N, seed)
    return W, 0.05 * X, p


# Column counts on both sides of the sweep's 128-column block edges.
EDGE_COLUMNS = [1, 127, 128, 129, 256, 257, 385]
# Above every gate: 2 Hessian tasks, 4 lookahead updates, 2 recon_err tasks.
ABOVE_GATES = (512, 768, 256)


class TestSplit:
    @pytest.mark.parametrize("N", [1, 5, 300])
    @pytest.mark.parametrize("n", EDGE_COLUMNS)
    def test_hessian_matches_inline(self, monkeypatch, n, N):
        X = np.random.default_rng([n, N]).normal(size=(n, N))
        lower_gates(monkeypatch)
        want = inline(monkeypatch, accumulate_hessian, X)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        got = accumulate_hessian(X)
        assert len(calls) == 2
        assert got.tobytes() == want.tobytes()
        # Both take the same pieces; they agree with the single product
        # to rounding, and the mirror keeps H exactly symmetric.
        assert np.array_equal(got, got.T)
        assert np.allclose(got, 2.0 * (X @ X.T), rtol=1e-12, atol=1e-12 * N)

    @pytest.mark.parametrize("m", [1, 3, 64])
    @pytest.mark.parametrize("n", EDGE_COLUMNS)
    def test_sweep_matches_inline(self, monkeypatch, n, m):
        W, X, p = soft_layer(m, n, 2 * n, seed=n + m)
        factor = damped_inverse_factor(accumulate_hessian(X))
        plain = hessian_aware_init(W, p, factor)
        lower_gates(monkeypatch)
        want = inline(monkeypatch, hessian_aware_init, W, p, factor)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        got = hessian_aware_init(W, p, factor)
        assert len(calls) == lookahead_tasks(n)
        assert_same_init(got, want)
        assert_close_init(got, plain)

    @pytest.mark.parametrize("m", [1, 3, 64])
    @pytest.mark.parametrize("n", EDGE_COLUMNS)
    def test_curvature_init_matches_inline(self, monkeypatch, n, m):
        W, X, p = soft_layer(m, n, 300, seed=n * m)
        plain, plain_err = curvature_init(W, X, p)
        lower_gates(monkeypatch)
        want, want_err = inline(monkeypatch, curvature_init, W, X, p)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        got, err = curvature_init(W, X, p)
        assert len(calls) == 2 + lookahead_tasks(n) + 2
        assert_same_init(got, want)
        assert err == want_err
        assert_close_init(got, plain)
        assert err == pytest.approx(plain_err, rel=1e-9)

    @pytest.mark.parametrize("m, n, N", [ABOVE_GATES, (1024, 768, 384)])
    def test_aligned_shapes_keep_the_single_product_bytes(self, monkeypatch, m, n, N):
        # With every dimension a multiple of 128, the pieces reproduce the
        # unsplit products bit for bit, so the outputs are the unsplit path's.
        W, X, p = soft_layer(m, n, N, seed=m + n + N)
        with monkeypatch.context() as mp:
            mp.setattr(hessian, "_SPLIT_WORK", np.inf)
            refuse_pool(mp)
            want, want_err = curvature_init(W, X, p)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        got, err = curvature_init(W, X, p)
        assert len(calls) == 2 + lookahead_tasks(n) + 2
        assert_same_init(got, want)
        assert err == want_err

    @pytest.mark.parametrize("shape, cores", [((64, 385, 770), "one"), (ABOVE_GATES, "one"),
                                              (ABOVE_GATES, "two")])
    def test_sweep_reads_the_factor_in_any_layout(self, monkeypatch, shape, cores):
        # The factor is a reversed view of LAPACK's buffer; its row-major
        # copy gives the sweep the same bytes.
        W, X, p = soft_layer(*shape, seed=sum(shape))
        factor = damped_inverse_factor(accumulate_hessian(X))
        assert not (factor.flags.c_contiguous or factor.flags.f_contiguous)
        if cores == "one":
            want = inline(monkeypatch, hessian_aware_init, W, p, np.ascontiguousarray(factor))
            got = inline(monkeypatch, hessian_aware_init, W, p, factor)
        else:
            two_cores(monkeypatch)
            calls = counted_submits(monkeypatch)
            want = hessian_aware_init(W, p, np.ascontiguousarray(factor))
            got = hessian_aware_init(W, p, factor)
            assert len(calls) == 2 * lookahead_tasks(shape[1])
        assert_same_init(got, want)

    @pytest.mark.parametrize("n, N, tasks", [(512, 512, 2), (384, 1024, 2), (384, 768, 0),
                                             (512, 511, 0), (520, 1024, 0)])
    def test_hessian_gate(self, monkeypatch, n, N, tasks):
        # From n * n * N = 2^27 on, with n and N multiples of 128.
        X = np.random.default_rng(40).normal(size=(n, N))
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        accumulate_hessian(X)
        assert len(calls) == tasks

    @pytest.mark.parametrize("m, n, tasks", [(512, 768, 4), (384, 768, 0), (512, 640, 0),
                                             (520, 1024, 0), (512, 1000, 0)])
    def test_sweep_gate(self, monkeypatch, m, n, tasks):
        # From 512 rows and 768 columns on, both multiples of 128.
        W, _, p = layer(m, n, 1, seed=41)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        hessian_aware_init(W, p, np.eye(n))
        assert len(calls) == tasks

    @pytest.mark.parametrize("m, n, tasks", [(512, 512, 2), (640, 512, 2), (256, 512, 0),
                                             (640, 520, 2)])
    def test_recon_err_gate(self, monkeypatch, m, n, tasks):
        # From m * n * n = 2^27 on, whatever the shape. One calibration
        # column keeps the Hessian and the sweep unsplit.
        W, X, p = layer(m, n, 1, seed=42)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        curvature_init(W, X, p)
        assert len(calls) == tasks

    def test_layer_256_init_stays_inline(self, monkeypatch):
        # layer-256's init: 256x256 weights, 1024 calibration columns.
        W, X, p = layer(256, 256, 1024, seed=43)
        two_cores(monkeypatch)
        refuse_pool(monkeypatch)
        curvature_init(W, X, p)

    def test_e2e_toy_hessian_student_stays_inline(self, monkeypatch):
        # e2e-toy's 64-128-128-16 net with 256 calibration columns.
        teacher = distill.random_net((64, 128, 128, 16), seed=44)
        calib = np.random.default_rng(45).normal(size=(64, 256))
        two_cores(monkeypatch)
        refuse_pool(monkeypatch)
        student = distill.build_student(teacher, bits=3, k=256, d=8, kmeans_iters=2,
                                        init="hessian", calib=calib)
        assert all(layer.base is not None for layer in student.layers)

    def test_one_usable_core_runs_inline(self, monkeypatch):
        W, X, p = soft_layer(*ABOVE_GATES, seed=46)
        want = curvature_init(W, X, p)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
        refuse_pool(monkeypatch)
        got = curvature_init(W, X, p)
        assert_same_init(got[0], want[0])
        assert got[1] == want[1]

    @pytest.mark.parametrize("index", [0, 2, 7])
    def test_worker_error_reaches_the_caller(self, monkeypatch, index):
        # Tasks 0-1 take the Hessian, 2-5 the lookahead updates and 6-7
        # recon_err. One task fails at once, every other one sleeps first:
        # the error reaches the caller only once all of them have stopped.
        W, X, p = soft_layer(*ABOVE_GATES, seed=47)
        two_cores(monkeypatch)
        want, want_err = curvature_init(W, X, p)
        with monkeypatch.context() as m:
            submitted, finished = fail_one_task(m, index)
            with pytest.raises(Boom, match=f"task {index} failed"):
                curvature_init(W, X, p)
        assert index in submitted
        assert sorted(finished) == [t for t in submitted if t != index]
        got, err = curvature_init(W, X, p)
        assert_same_init(got, want)
        assert err == want_err

    def test_sweep_error_waits_for_the_pending_update(self, monkeypatch):
        # The column loop fails in the second block while the first
        # block's trailing update still runs on the pool.
        W, X, p = soft_layer(*ABOVE_GATES, seed=48)
        factor = damped_inverse_factor(accumulate_hessian(X))
        rounded = []

        def round_until_block_1(x):
            rounded.append(x)
            if len(rounded) > 128:
                raise Boom("column loop failed")
            return round_half_away(x)

        two_cores(monkeypatch)
        submitted, finished = fail_one_task(monkeypatch, None)
        monkeypatch.setattr(hessian, "round_half_away", round_until_block_1)
        with pytest.raises(Boom, match="column loop failed"):
            hessian_aware_init(W, p, factor)
        assert submitted == finished == [0]

    def test_sweep_under_rapid_thread_switches(self, monkeypatch):
        # The pool thread and the column loop share Wt by rows. With every
        # pool task late by 20 ms, an update the next one does not wait
        # for, or one lost, would show in the bytes.
        W, X, p = soft_layer(*ABOVE_GATES, seed=49)
        factor = damped_inverse_factor(accumulate_hessian(X))
        want = inline(monkeypatch, hessian_aware_init, W, p, factor)
        two_cores(monkeypatch)
        submitted, finished = fail_one_task(monkeypatch, None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert_same_init(hessian_aware_init(W, p, factor), want)
        finally:
            sys.setswitchinterval(interval)
        assert submitted == finished == list(range(5 * lookahead_tasks(ABOVE_GATES[1])))

    def test_split_hessian_does_not_hold_the_calibration(self, monkeypatch):
        # TestCurvatureInit's check with the Hessian split over two cores.
        W, _, p = layer(8, 32, 1, seed=5)
        N = 50_000
        in_use = []
        sweep = hessian.hessian_aware_init

        def traced_sweep(*args):
            in_use.append(tracemalloc.get_traced_memory()[0])
            return sweep(*args)

        lower_gates(monkeypatch)
        two_cores(monkeypatch)
        calls = counted_submits(monkeypatch)
        monkeypatch.setattr(hessian, "hessian_aware_init", traced_sweep)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            curvature_init(W, np.random.default_rng(6).normal(size=(32, N)), p)
        finally:
            tracemalloc.stop()
        assert len(calls) == 4
        assert in_use[0] - before < 32 * N * 8 / 10


def fail_one_task(monkeypatch, index):
    """Make the pool's task number ``index`` raise Boom at once, and every
    other task sleep 20 ms before it runs. Returns the numbers of the
    tasks submitted and of those that ran to the end."""
    submitted, finished = [], []
    submit = parallel.submit

    def failing(fn, *args):
        number = len(submitted)
        submitted.append(number)

        def task():
            if number == index:
                raise Boom(f"task {number} failed")
            time.sleep(0.02)
            fn(*args)
            finished.append(number)

        return submit(task)

    monkeypatch.setattr(parallel, "submit", failing)
    return submitted, finished
