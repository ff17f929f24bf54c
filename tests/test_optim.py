import numpy as np
import pytest
from scipy.special import expit

from vqround import errors, optim
from vqround.hessian import residual_init
from vqround.optim import (
    AdamState,
    FinetuneConfig,
    adam_step,
    anneal_beta,
    blockwise_loss,
    optimize_blockwise,
    warmup_steps,
)
from vqround.quantize import (
    GAMMA,
    ZETA,
    QuantParams,
    compute_quant_params,
    inverse_rectified_sigmoid,
    rounding_regularizer,
)
from vqround.reparam import Codebook, fit_codebook, vq_reconstruct


class TestAnnealBeta:
    def test_start_at_high(self):
        cfg = FinetuneConfig(steps=5000)
        assert anneal_beta(1, cfg) == 20.0

    def test_end_at_low(self):
        cfg = FinetuneConfig(steps=5000)
        assert anneal_beta(5000, cfg) == 2.0

    def test_warmup_holds_high(self):
        cfg = FinetuneConfig(steps=5000)
        assert warmup_steps(cfg) == 500
        assert anneal_beta(500, cfg) == 20.0

    def test_linear_midpoint(self):
        # steps=101, 10% warm-up -> post-warm-up span 11..101 with
        # integral midpoint 56, where the interpolation hits (20+2)/2.
        cfg = FinetuneConfig(steps=101)
        assert anneal_beta(56, cfg) == pytest.approx(11.0)

    @pytest.mark.parametrize("t", [0, 5001, -3])
    def test_step_out_of_range(self, t):
        with pytest.raises(errors.StepOutOfRange):
            anneal_beta(t, FinetuneConfig(steps=5000))


class TestFinetuneConfig:
    @pytest.mark.parametrize("field", ["lr", "lam", "beta_high", "beta_low", "temperature"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_setting_raises(self, field, value):
        with pytest.raises(errors.DomainError, match=f"{field} must be finite"):
            FinetuneConfig(**{field: value})

    def test_negative_lam_raises(self):
        with pytest.raises(errors.DomainError, match="lam must be >= 0"):
            FinetuneConfig(lam=-5.0)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = np.array([1.0, -2.0])
        state = AdamState.for_params(params)
        out = adam_step(state, params, np.zeros(2), lr=0.1)
        assert np.array_equal(out, params)

    def test_first_step_is_signed_lr(self):
        # Bias-corrected moments cancel the magnitude on step one.
        params = np.zeros(3)
        state = AdamState.for_params(params)
        g = np.array([0.5, -3.0, 10.0])
        out = adam_step(state, params, g, lr=0.01)
        assert np.allclose(out, -0.01 * np.sign(g), rtol=1e-6)

    def test_descends_convex_quadratic(self):
        x = np.array([3.0])
        state = AdamState.for_params(x)
        losses = []
        for _ in range(50):
            losses.append(float(x[0] ** 2))
            x = adam_step(state, x, 2.0 * x, lr=0.1)
        assert losses[-1] < losses[0]

    def test_steps_match_the_textbook_update(self):
        # Kingma & Ba's update with beta1 = 0.9, beta2 = 0.999, eps = 1e-8,
        # written out term by term.
        rng = np.random.default_rng(3)
        params = rng.normal(size=5)
        state = AdamState.for_params(params)
        m = v = np.zeros(5)
        want = params
        for t in range(1, 4):
            g = rng.normal(size=5)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g**2
            want = want - 0.05 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            params = adam_step(state, params, g, lr=0.05)
            assert np.array_equal(params, want)

    def test_in_place_moments_match_the_rebinding_update(self):
        # The update as written before it kept its moments in place, each
        # expression allocating; 25 steps on a k x d codebook, bit for bit,
        # with the caller's moment arrays updated rather than replaced.
        rng = np.random.default_rng(4)
        params = rng.normal(size=(256, 8))
        state = AdamState.for_params(params)
        m_buf, v_buf = state.m, state.v
        m = v = np.zeros_like(params)
        want = params
        for t in range(1, 26):
            g = rng.normal(size=params.shape) * 10.0 ** rng.uniform(-6, 2)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g**2
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            want = want - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            before, kept = params, params.copy()
            params = adam_step(state, params, g, lr=1e-2)
            assert params is not before and before.tobytes() == kept.tobytes()
            assert params.tobytes() == want.tobytes()
            assert state.m is m_buf and state.v is v_buf
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        assert state.step == 25

    def test_shape_mismatch(self):
        state = AdamState.for_params(np.zeros(2))
        with pytest.raises(errors.ShapeMismatch):
            adam_step(state, np.zeros(2), np.zeros(3), lr=0.1)


def blockwise_grad(W, X, p, cb, lam, beta):
    """Gradient of :func:`blockwise_loss` w.r.t. the centroids (k, d)."""
    quant, G = optim._layer_setup(W, X, p, cb)
    return optim._blockwise_objective(quant, G, cb.centroids, lam, beta)[1]


def grid_aligned_layer(seed=0, shape=(4, 6), bits=3):
    """Weights exactly on the quantization grid with an exact codebook."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 0.5, size=shape[0])
    q_max = 2**bits - 1
    grid = rng.integers(0, q_max + 1, size=shape)
    W = scale[:, None] * grid
    p = QuantParams(bits=bits, scale=scale, zero=np.zeros(shape[0], dtype=np.int64))
    A0 = inverse_rectified_sigmoid(residual_init(W, p))
    cb = fit_codebook(A0, d=shape[1], k=shape[0], iters=10, seed=0)
    return W, p, cb


class TestBlockwiseLoss:
    def test_zero_at_exact_grid(self):
        W, p, cb = grid_aligned_layer()
        X = np.random.default_rng(1).normal(size=(6, 10))
        # Residual is 0 on the grid -> binary rounding matrix -> exact
        # weights and zero regularizer.
        # The regularizer leaves ~1e-15 of float residue at the grid.
        assert blockwise_loss(W, X, p, cb, lam=1e-2, beta=5.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_without_regularizer(self):
        W, p, cb = grid_aligned_layer(seed=2)
        X = np.random.default_rng(3).normal(size=(6, 10))
        assert blockwise_loss(W, X, p, cb, lam=0.0, beta=5.0) == pytest.approx(0.0, abs=1e-15)

    def test_positive_after_perturbation(self):
        W, p, cb = grid_aligned_layer(seed=4)
        X = np.random.default_rng(5).normal(size=(6, 10))
        cb.centroids = cb.centroids + 0.5
        assert blockwise_loss(W, X, p, cb, lam=0.0, beta=5.0) > 0.0

    def test_shape_mismatch(self):
        W, p, cb = grid_aligned_layer(seed=6)
        with pytest.raises(errors.ShapeMismatch):
            blockwise_loss(W, np.zeros((5, 4)), p, cb)


def interior_codebook(seed, shape=(8, 8), d=4, k=8, bits=4):
    """Random layer whose rounding seed is pulled off the clip edges."""
    rng = np.random.default_rng(seed)
    W = rng.normal(size=shape)
    X = rng.normal(size=(shape[1], 2 * shape[1]))
    p = compute_quant_params(W, bits)
    resid = np.clip(residual_init(W, p), 0.02, 0.98)
    A0 = inverse_rectified_sigmoid(resid)
    cb = fit_codebook(A0, d=d, k=k, iters=50, seed=seed)
    return W, X, p, cb


def fd_check_blockwise(W, X, p, cb, lam, beta, h=1e-3):
    """Central-difference comparison on coordinates whose clip masks are
    stable under the probe; returns (checked, worst relative error)."""
    m, n = W.shape
    d = cb.d
    analytic = blockwise_grad(W, X, p, cb, lam, beta)

    def local_masks_ok(i, j):
        flat = np.flatnonzero(cb.indices == i) * d + j
        rr, cc = np.unravel_index(flat, (m, n))
        for delta in (h, 0.0, -h):
            c2 = Codebook(centroids=cb.centroids.copy(), indices=cb.indices, shape=cb.shape)
            c2.centroids[i, j] += delta
            A = vq_reconstruct(c2)
            g = GAMMA + (ZETA - GAMMA) * expit(A[rr, cc])
            if np.any((g <= 0.0) | (g >= 1.0)):
                return False
            v = np.floor(W[rr, cc] / p.scale[rr]) + g + p.zero[rr]
            if np.any((v <= p.q_min) | (v >= p.q_max)):
                return False
        return True

    checked, worst = 0, 0.0
    for i in range(cb.k):
        for j in range(d):
            if not local_masks_ok(i, j):
                continue
            cp = Codebook(centroids=cb.centroids.copy(), indices=cb.indices, shape=cb.shape)
            cp.centroids[i, j] += h
            cm = Codebook(centroids=cb.centroids.copy(), indices=cb.indices, shape=cb.shape)
            cm.centroids[i, j] -= h
            fd = (
                blockwise_loss(W, X, p, cp, lam, beta)
                - blockwise_loss(W, X, p, cm, lam, beta)
            ) / (2 * h)
            rel = abs(analytic[i, j] - fd) / max(abs(fd), 1e-10)
            worst = max(worst, rel)
            checked += 1
    return checked, worst


class TestBlockwiseGrad:
    def test_zero_at_exact_grid_optimum(self):
        W, p, cb = grid_aligned_layer(seed=7)
        X = np.random.default_rng(8).normal(size=(6, 10))
        # At the optimum the latent sits on the saturation boundary,
        # where the subgradient convention gives exactly zero.
        g = blockwise_grad(W, X, p, cb, lam=0.0, beta=5.0)
        assert np.array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self):
        W, X, p, cb = interior_codebook(seed=7)
        checked, worst = fd_check_blockwise(W, X, p, cb, lam=1e-2, beta=4.0)
        assert checked >= 10
        assert worst < 1e-4

    def test_shared_centroid_sums_block_grads(self):
        # Two blocks mapped to one centroid: the centroid gradient is
        # the sum of the per-block contributions. Compare against a
        # split codebook with identical reconstruction.
        W = np.array([[0.3, 0.7, 0.4, 0.6]])
        p = QuantParams(bits=4, scale=np.array([1.0]), zero=np.array([0]))
        X = np.random.default_rng(9).normal(size=(4, 6))
        A0 = inverse_rectified_sigmoid(residual_init(W, p))
        center = A0.reshape(2, 2).mean(axis=0)
        shared = Codebook(centroids=center[None, :], indices=np.array([0, 0]), shape=(1, 4))
        split = Codebook(
            centroids=np.vstack([center, center]), indices=np.array([0, 1]), shape=(1, 4)
        )
        g_shared = blockwise_grad(W, X, p, shared, lam=0.0, beta=2.0)
        g_split = blockwise_grad(W, X, p, split, lam=0.0, beta=2.0)
        assert np.allclose(g_shared[0], g_split[0] + g_split[1], atol=1e-12)


class TestCodebookBackward:
    @pytest.mark.parametrize("beta", [0.5, 2.0, 20.0])
    def test_regularizer_matches_gathered_rounding_matrix(self, beta):
        # A latent of -5.55e-16 maps to h = 1/2 exactly (a zero latent
        # gives 0.5000000000000001); latents of -20 and 20 saturate to 0
        # and 1. Centroids 10 and 11 are used by no block.
        rng = np.random.default_rng(15)
        W = rng.normal(size=(16, 32))
        p = compute_quant_params(W, 3)
        centroids = rng.normal(size=(12, 8))
        centroids[0, :3] = [-20.0, -5.55e-16, 20.0]
        indices = rng.integers(0, 10, size=64)
        indices[0] = 0
        cb = Codebook(centroids=centroids, indices=indices, shape=W.shape)
        quant = optim.LayerQuantizer([(W, p, cb, None)])
        fwd = quant.forward(cb.centroids)
        H = fwd.h[cb.indices].reshape(cb.shape)
        assert {0.0, 0.5, 1.0} <= set(H.ravel())
        quant.dwhat[...] = 0.0
        reg, _ = quant.backward(fwd, 1.0, beta)
        want = rounding_regularizer(H, beta)
        assert abs(reg - want) <= 1e-12 * want


class TestSoftQuantForward:
    def test_hard_mode_builds_no_clip_mask(self):
        W, _, p, cb = interior_codebook(seed=3)
        quant = optim.LayerQuantizer([(W, p, cb, None)])
        hard = quant.forward(cb.centroids, hard=True)
        soft = quant.forward(cb.centroids)
        assert hard.clip_active is None
        assert soft.clip_active.shape == (W.size,)
        assert not hard.slope.any()


class TestOptimizeBlockwise:
    def test_zero_steps_keeps_codebook(self):
        W, X, p, cb = interior_codebook(seed=10)
        out, trace = optimize_blockwise(W, X, p, cb, FinetuneConfig(steps=0))
        assert trace.size == 0
        assert np.array_equal(out.centroids, cb.centroids)
        assert np.array_equal(out.indices, cb.indices)

    def test_seeded_run_descends(self):
        # Pure reconstruction objective so first and last trace entries
        # measure the same quantity.
        W, X, p, cb = interior_codebook(seed=11, shape=(16, 16), d=4, k=16)
        cfg = FinetuneConfig(steps=120, lam=0.0)
        out, trace = optimize_blockwise(W, X, p, cb, cfg)
        assert trace[-1] < trace[0]
        assert np.array_equal(out.indices, cb.indices)

    def test_large_lambda_pushes_binary(self):
        W, X, p, cb = interior_codebook(seed=12, shape=(16, 16), d=4, k=16)
        cfg = FinetuneConfig(steps=800, lam=100.0)
        out, _ = optimize_blockwise(W, X, p, cb, cfg)
        from vqround.quantize import rectified_sigmoid

        H = rectified_sigmoid(vq_reconstruct(out))
        near_binary = np.minimum(H, 1.0 - H) <= 0.05
        assert np.mean(near_binary) >= 0.95

    def test_warmup_trace_excludes_regularizer(self):
        W, X, p, cb = interior_codebook(seed=13)
        cfg = FinetuneConfig(steps=20, warmup_frac=0.5)
        _, trace = optimize_blockwise(W, X, p, cb, cfg)
        _, trace_no_reg = optimize_blockwise(
            W, X, p, cb, FinetuneConfig(steps=20, warmup_frac=0.5, lam=0.0)
        )
        w = warmup_steps(cfg)
        assert np.array_equal(trace[:w], trace_no_reg[:w])


def clipped_saturated_layer(seed):
    """32x48 layer, N=96, whose grid is narrower than its rows and whose
    latents reach far past the sigmoid's clip points, so the forward has
    entries clipped at q_min and q_max and saturated decisions."""
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(32, 48))
    X = rng.normal(size=(48, 96))
    p = QuantParams(bits=3, scale=0.7 * np.ptp(W, axis=1) / 7, zero=np.full(32, 4))
    cb = Codebook(centroids=3.0 * rng.normal(size=(40, 8)),
                  indices=rng.integers(0, 40, size=32 * 48 // 8), shape=(32, 48))
    return W, X, p, cb


def direct_objective(W, X, p, cb, lam, beta):
    """Loss ||(W - What) X||^2 + lam R and its centroid gradient for
    beta > 1, from the (m, N) residual and an element-by-element
    backward pass."""
    A = cb.centroids[cb.indices].reshape(W.shape)
    sig = expit(A)
    g = GAMMA + (ZETA - GAMMA) * sig
    H = np.clip(g, 0.0, 1.0)
    s, z = p.scale[:, None], p.zero[:, None]
    v = np.floor(W / s) + H + z
    what = s * (np.clip(v, p.q_min, p.q_max) - z)
    resid = (W - what) @ X
    t = 2.0 * H - 1.0
    loss = np.sum(resid**2) + lam * np.sum(1.0 - np.abs(t) ** beta)

    d_what = -2.0 * resid @ X.T
    d_h = d_what * s * ((v > p.q_min) & (v < p.q_max))
    d_h = d_h + lam * -2.0 * beta * np.sign(t) * np.abs(t) ** (beta - 1.0)
    d_a = d_h * (ZETA - GAMMA) * sig * (1.0 - sig) * ((g > 0.0) & (g < 1.0))
    grad = np.zeros_like(cb.centroids)
    for block, c in enumerate(cb.indices):
        grad[c] += d_a.reshape(-1, cb.d)[block]
    masks = {
        "clip_low": v <= p.q_min, "clip_high": v >= p.q_max,
        "sat_low": g <= 0.0, "sat_high": g >= 1.0,
    }
    return loss, grad, masks


class TestFusedObjective:
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_direct_oracle(self, seed, lam):
        W, X, p, cb = clipped_saturated_layer(seed)
        beta = 3.0
        want_loss, want_grad, masks = direct_objective(W, X, p, cb, lam, beta)
        for name, mask in masks.items():
            assert mask.any(), f"no {name} entries exercised"
        loss = blockwise_loss(W, X, p, cb, lam, beta)
        grad = blockwise_grad(W, X, p, cb, lam, beta)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    def test_one_forward_per_step(self, monkeypatch):
        W, X, p, cb = interior_codebook(seed=14)
        calls = []
        forward = optim.LayerQuantizer.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(optim.LayerQuantizer, "forward", counted)
        optimize_blockwise(W, X, p, cb, FinetuneConfig(steps=17))
        assert len(calls) == 17
