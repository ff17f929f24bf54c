"""The per-layer quantizer against a reference copy of the step it replaced.

``ref_forward``, ``ref_backward`` and ``ref_objective`` are the soft
quantizer forward, the ``np.bincount`` scatter and the Gram-form loss as
they ran before the quantizer was built once per run: every array fresh,
the base ``floor(W / s)`` unless given, one ``bincount`` per block
coordinate. Training through the quantizer must match them bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import log_softmax

from vqround import distill, errors, optim
from vqround.distill import (
    Layer,
    TinyNet,
    _kl_and_logit_grad,
    build_student,
    e2e_finetune,
    forward_logits,
    kl_loss,
    random_net,
)
from vqround.hessian import curvature_init
from vqround.optim import (
    FinetuneConfig,
    LayerQuantizer,
    adam_step,
    anneal_beta,
    optimize_blockwise,
    warmup_steps,
)
from vqround.quantize import (
    GAMMA,
    ZETA,
    QuantParams,
    _regularizer_terms,
    _stretched_sigmoid,
    adaptive_quantize,
    compute_quant_params,
    hard_round,
    inverse_rectified_sigmoid,
    regularizer_grad,
)
from vqround.reparam import Codebook, flatten_blocks


def ref_forward(W, p, cb, base=None, hard=False):
    sig, g = _stretched_sigmoid(cb.centroids)
    h = np.clip(g, 0.0, 1.0)
    if hard:
        h = hard_round(h)
        slope = np.zeros_like(sig)
    else:
        slope = (ZETA - GAMMA) * sig
        slope *= 1.0 - sig
        slope *= (g > 0.0) & (g < 1.0)
    H = h[cb.indices].reshape(cb.shape)
    if base is None:
        base = np.floor(np.asarray(W, dtype=np.float64) / p.scale[:, None])
    z = p.zero[:, None]
    v = base + H
    v += z
    q = np.clip(v, p.q_min, p.q_max)
    what = q - z
    what *= p.scale[:, None]
    clip_active = None if hard else (v > p.q_min) & (v < p.q_max)
    return what, clip_active, h, slope


def ref_backward(fwd, dl_dwhat, p, cb, lam, beta):
    _, clip_active, h, slope = fwd
    counts = np.bincount(cb.indices, minlength=cb.k)[:, None]
    reg = float(np.sum(counts * _regularizer_terms(h, beta)))
    dl_dh = dl_dwhat * p.scale[:, None]
    dl_dh *= clip_active
    block_grads = dl_dh.reshape(-1, cb.d).T
    grad = np.empty_like(cb.centroids)
    for j in range(cb.d):
        grad[:, j] = np.bincount(cb.indices, weights=block_grads[j], minlength=cb.k)
    if lam != 0.0:
        grad += lam * counts * regularizer_grad(h, beta)
    grad *= slope
    return reg, grad


def ref_objective(W, G, base, p, cb, lam, beta):
    fwd = ref_forward(W, p, cb, base)
    err = W - fwd[0]
    err_g = err @ G
    loss = float(np.sum(err_g * err))
    err_g *= -2.0
    reg, grad = ref_backward(fwd, err_g, p, cb, lam, beta)
    return loss + lam * reg, grad


def clipped_layer(seed, shape, d, k, layout="float64"):
    """A layer whose grid is narrower than its rows (entries clip at 0 and
    at q_max), whose latents saturate the sigmoid, and whose last
    centroid no block uses."""
    rng = np.random.default_rng(seed)
    W = rng.normal(size=shape)
    p = QuantParams(bits=3, scale=0.7 * np.ptp(W, axis=1) / 7, zero=np.full(shape[0], 4))
    if layout == "float32":
        W = W.astype(np.float32)
    elif layout == "fortran":
        W = np.asfortranarray(W)
    elif layout == "strided":
        W = np.repeat(W, 2, axis=1)[:, ::2]
    indices = rng.integers(0, k - 1, size=shape[0] * shape[1] // d)
    cb = Codebook(centroids=3.0 * rng.normal(size=(k, d)), indices=indices, shape=shape)
    return W, p, cb


def exercised(W, p, cb, base=None):
    """The clip and saturation cases the layer's first forward reaches."""
    W64 = np.asarray(W, dtype=np.float64)
    sig, g = _stretched_sigmoid(cb.centroids)
    H = np.clip(g, 0.0, 1.0)[cb.indices].reshape(cb.shape)
    b = np.floor(W64 / p.scale[:, None]) if base is None else base
    v = b + H + p.zero[:, None]
    return {"clip_low": (v <= p.q_min).any(), "clip_high": (v >= p.q_max).any(),
            "sat_low": (g <= 0.0).any(), "sat_high": (g >= 1.0).any(),
            "unused": np.bincount(cb.indices, minlength=cb.k).min() == 0}


def recording(monkeypatch, module):
    """Record the gradient and parameters of every Adam update made through
    ``module.adam_step``, as passed and as copied at the call."""
    calls = []

    def adam(state, params, grads, lr):
        calls.append((params, params.copy(), grads, grads.copy()))
        return adam_step(state, params, grads, lr)

    monkeypatch.setattr(module, "adam_step", adam)
    return calls


BLOCKWISE_CASES = [
    # (shape, d, k, layout, lam, with_base)
    ((16, 24), 8, 12, "float64", 0.0, False),
    ((16, 24), 8, 12, "float64", 0.05, False),
    ((16, 24), 1, 40, "float64", 0.05, False),
    ((16, 24), 1, 40, "float32", 0.0, False),
    ((16, 24), 8, 12, "strided", 0.05, False),
    ((16, 24), 8, 12, "fortran", 0.0, True),
    ((16, 24), 8, 12, "float32", 0.05, True),
    ((4, 1032), 8, 40, "float64", 0.05, False),
    ((4, 1032), 1, 40, "strided", 0.0, True),
]


class TestBlockwiseMatchesReference:
    @pytest.mark.parametrize("shape, d, k, layout, lam, with_base", BLOCKWISE_CASES)
    def test_losses_gradients_and_centroids_bit_for_bit(self, monkeypatch, shape, d, k, layout,
                                                        lam, with_base):
        W, p, cb = clipped_layer(d + k, shape, d, k, layout)
        X = np.random.default_rng(k).normal(size=(shape[1], 40))
        W64 = np.asarray(W, dtype=np.float64)
        base = np.floor(W64 / p.scale[:, None])
        if with_base:
            base += np.random.default_rng(d).integers(-1, 2, size=base.shape)
        assert all(exercised(W, p, cb, base).values())
        cfg = FinetuneConfig(steps=24, lam=lam, warmup_frac=0.25)

        calls = recording(monkeypatch, optim)
        out, trace = optimize_blockwise(W, X, p, cb, cfg,
                                        base=base if with_base else None)

        G = X @ X.T
        state = optim.AdamState.for_params(cb.centroids)
        work = Codebook(centroids=cb.centroids.copy(), indices=cb.indices, shape=cb.shape)
        for t in range(1, cfg.steps + 1):
            lam_t = 0.0 if t <= warmup_steps(cfg) else cfg.lam
            loss, grad = ref_objective(W64, G, base, p, work, lam_t, anneal_beta(t, cfg))
            assert trace[t - 1] == loss
            assert calls[t - 1][3].tobytes() == grad.tobytes()
            work.centroids = adam_step(state, work.centroids, grad, cfg.lr)
        assert out.centroids.tobytes() == work.centroids.tobytes()
        assert len(calls) == cfg.steps

    def test_hard_forward_matches_reference(self):
        W, p, cb = clipped_layer(3, (16, 24), 8, 12, "strided")
        quant = LayerQuantizer([(W, p, cb, None)])
        for hard in (False, True):
            got = quant.forward(cb.centroids, hard=hard)
            what, clip_active, h, slope = ref_forward(W, p, cb, hard=hard)
            assert got.what.tobytes() == what.tobytes()
            assert got.h.tobytes() == h.tobytes()
            assert got.slope.tobytes() == slope.tobytes()
            if hard:
                assert got.clip_active is None
            else:
                assert np.array_equal(got.clip_active.reshape(W.shape), clip_active)


def clipped_student(seed, d, shapes=((16, 24), (8, 16))):
    layers = []
    for i, shape in enumerate(shapes):
        W, p, cb = clipped_layer(seed + i, shape, d, 20 if d == 8 else 60)
        layers.append(Layer(weight=W, params=p, codebook=cb))
    return TinyNet(layers=layers)


def with_bases(student):
    """Give every layer a base one step off ``floor(W / s)`` here and there."""
    for i, layer in enumerate(student.layers):
        layer.base = np.floor(layer.weight / layer.params.scale[:, None])
        layer.base += np.random.default_rng(i).integers(-1, 2, size=layer.base.shape)
    return student


def hard_weight(W, p, cb, base=None):
    """The layer's hard-rounded weights from a quantizer over it alone."""
    fwd = LayerQuantizer([(W, p, cb, base)]).forward(cb.centroids, hard=True)
    return fwd.what.reshape(np.shape(W))


def ref_e2e(teacher, student, data, cfg):
    """e2e_finetune's loop on the reference step, on copies of the codebooks.
    Returns the per-step loss terms, the per-step lists of per-layer
    gradients, and the codebooks."""
    cbs = [Codebook(centroids=l.codebook.centroids.copy(), indices=l.codebook.indices,
                    shape=l.codebook.shape) for l in student.layers]
    states = [optim.AdamState.for_params(cb.centroids) for cb in cbs]
    losses, grads_seen = [], []
    n = len(cbs)
    for t in range(1, cfg.steps + 1):
        x = np.asarray(data[(t - 1) % len(data)], dtype=np.float64)[:, None]
        lam, beta = (0.0 if t <= warmup_steps(cfg) else cfg.lam), anneal_beta(t, cfg)
        fwds = [ref_forward(l.weight, l.params, cb, l.base)
                for l, cb in zip(student.layers, cbs)]
        acts, pre, a = [x], [], x
        for i, fwd in enumerate(fwds):
            pre.append(fwd[0] @ a)
            a = np.maximum(pre[-1], 0.0) if i < n - 1 else pre[-1]
            acts.append(a)
        log_pt = log_softmax(forward_logits(teacher, x) / cfg.temperature, axis=0)
        kd, delta = _kl_and_logit_grad(acts[-1], log_pt, cfg.temperature)
        regs, grads = [0.0] * n, [None] * n
        for i in range(n - 1, -1, -1):
            regs[i], grads[i] = ref_backward(fwds[i], delta @ acts[i].T, student.layers[i].params,
                                             cbs[i], lam, beta)
            if i > 0:
                delta = (fwds[i][0].T @ delta) * (pre[i - 1] > 0.0)
        reg = sum(regs)
        losses.append((kd + lam * reg, kd, reg))
        grads_seen.append(grads)
        for i in range(n):
            cbs[i].centroids = adam_step(states[i], cbs[i].centroids, grads[i], cfg.lr)
    return losses, grads_seen, cbs


class TestE2EMatchesReference:
    @pytest.mark.parametrize("d, lam, with_base", [(8, 0.0, False), (8, 0.05, True),
                                                   (1, 0.05, False)])
    def test_traces_gradients_and_centroids_bit_for_bit(self, monkeypatch, d, lam, with_base):
        # Three layers: two layers' regularizer sums add up alike in either
        # order, three do not.
        student = clipped_student(7 + d, d, shapes=((16, 24), (8, 16), (8, 8)))
        if with_base:
            with_bases(student)
        for layer in student.layers:
            assert all(exercised(layer.weight, layer.params, layer.codebook, layer.base).values())
        teacher = random_net(student.dims, seed=d)
        data = [np.random.default_rng(i).normal(size=24) for i in range(5)]
        cfg = FinetuneConfig(steps=22, lam=lam, warmup_frac=0.25, temperature=1.5)
        want_losses, want_grads, want_cbs = ref_e2e(teacher, student, data, cfg)

        calls = recording(monkeypatch, distill)
        res = e2e_finetune(teacher, student, data, cfg)
        got_losses = list(zip(res.loss_trace, res.kd_trace, res.reg_trace))
        assert got_losses == want_losses
        # One Adam update per step, on the layers' centroids stacked.
        assert [c[3].tobytes() for c in calls] == [
            b"".join(g.tobytes() for g in grads) for grads in want_grads]
        for got, want in zip(res.codebooks, want_cbs):
            assert got.centroids.tobytes() == want.centroids.tobytes()

        x = np.column_stack(data)
        hard = [Layer(weight=ref_forward(l.weight, l.params, l.codebook, l.base, True)[0])
                for l in student.layers]
        want_kl = kl_loss(forward_logits(TinyNet(hard), x).T, forward_logits(teacher, x).T,
                          cfg.temperature)
        assert res.hard_kl_final == want_kl
        # The trained student's hard logits give the same KL.
        got_kl = kl_loss(forward_logits(student, x, mode="hard").T, forward_logits(teacher, x).T,
                         cfg.temperature)
        assert got_kl == res.hard_kl_final


class TestHardLogits:
    @pytest.mark.parametrize("d, with_base", [(8, False), (8, True), (1, True)])
    def test_match_a_quantizer_per_layer(self, d, with_base):
        student = clipped_student(11 + d, d, shapes=((16, 24), (8, 16), (8, 8)))
        if with_base:
            with_bases(student)
        for layer in student.layers:
            assert all(exercised(layer.weight, layer.params, layer.codebook, layer.base).values())
        x = np.random.default_rng(d).normal(size=(24, 7))
        a = x
        for i, l in enumerate(student.layers):
            what = hard_weight(l.weight, l.params, l.codebook, l.base)
            want = ref_forward(l.weight, l.params, l.codebook, l.base, hard=True)[0]
            assert what.tobytes() == want.tobytes()
            a = what @ a
            if i < len(student.layers) - 1:
                a = np.maximum(a, 0.0)
        assert forward_logits(student, x, mode="hard").tobytes() == a.tobytes()


class TestNoAliasing:
    def test_forward_outputs_survive_later_forwards(self):
        W, p, cb = clipped_layer(1, (16, 24), 8, 12)
        centroids = cb.centroids.copy()
        quant = LayerQuantizer([(W, p, cb, None)])
        first = quant.forward(cb.centroids)
        kept = [first.what.copy(), first.h.copy(), first.slope.copy()]
        clip_kept = first.clip_active.copy()
        # The clip mask is the quantizer's buffer, which only its next soft
        # forward overwrites.
        other = LayerQuantizer([(W, p, cb, None)])
        other.forward(-cb.centroids)
        other.forward(-cb.centroids, hard=True)
        quant.forward(-cb.centroids, hard=True)
        assert np.array_equal(first.clip_active, clip_kept)
        quant.forward(-cb.centroids)
        for got, want in zip([first.what, first.h, first.slope], kept):
            assert np.array_equal(got, want)
        assert cb.centroids.tobytes() == centroids.tobytes()

    def test_hard_and_soft_weights_survive_training(self):
        student = clipped_student(3, 8)
        teacher = random_net(student.dims, seed=3)
        x = np.random.default_rng(3).normal(size=(24, 4))
        quant = distill._student_quantizer(student)
        outputs = [quant.forward(quant.centroids, hard).what for hard in (False, True)]
        outputs.append(forward_logits(student, x, mode="hard"))
        kept = [out.copy() for out in outputs]
        data = [np.random.default_rng(i).normal(size=24) for i in range(3)]
        e2e_finetune(teacher, student, data, FinetuneConfig(steps=6))
        quant.forward(quant.centroids)
        trained = forward_logits(student, x, mode="hard")
        for got, want in zip(outputs, kept):
            assert got.tobytes() == want.tobytes()
        assert trained.tobytes() != kept[-1].tobytes()

    def test_gradients_and_results_survive_later_steps(self, monkeypatch):
        W, p, cb = clipped_layer(2, (16, 24), 8, 12)
        X = np.random.default_rng(2).normal(size=(24, 40))
        calls = recording(monkeypatch, optim)
        out, trace = optimize_blockwise(W, X, p, cb, FinetuneConfig(steps=8))
        for params, params_then, grads, grads_then in calls:
            assert params.tobytes() == params_then.tobytes()
            assert grads.tobytes() == grads_then.tobytes()
        kept = out.centroids.copy(), out.indices.copy(), trace.copy()
        optimize_blockwise(W, X, p, out, FinetuneConfig(steps=8))
        assert out.centroids.tobytes() == kept[0].tobytes()
        assert out.indices.tobytes() == kept[1].tobytes()
        assert trace.tobytes() == kept[2].tobytes()

    def test_e2e_gradients_survive_later_steps(self, monkeypatch):
        student = clipped_student(4, 8)
        teacher = random_net(student.dims, seed=4)
        data = [np.random.default_rng(i).normal(size=24) for i in range(3)]
        calls = recording(monkeypatch, distill)
        e2e_finetune(teacher, student, data, FinetuneConfig(steps=6))
        for params, params_then, grads, grads_then in calls:
            assert params.tobytes() == params_then.tobytes()
            assert grads.tobytes() == grads_then.tobytes()


def exact_codebook(h_tilde, d):
    """One centroid per block of the seed's latent preimage."""
    blocks = flatten_blocks(inverse_rectified_sigmoid(h_tilde), d)
    return Codebook(centroids=blocks.copy(), indices=np.arange(len(blocks)),
                    shape=h_tilde.shape)


class TestCurvatureSeedBase:
    def test_blockwise_layer_hardens_to_init(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(64, 64))
        X = rng.normal(size=(64, 256))
        p = compute_quant_params(W, 3)
        init, _ = curvature_init(W, X, p)
        cb = exact_codebook(init.h_tilde, 8)
        got = hard_weight(W, p, cb, init.base)
        assert got.tobytes() == np.ascontiguousarray(init.w_q).tobytes()
        # The floor of W itself is not the sweep's base.
        floor = hard_weight(W, p, cb)
        assert not np.array_equal(floor, init.w_q)
        _, explicit = adaptive_quantize(W, p, hard_round(init.h_tilde), base=init.base)
        assert explicit.tobytes() == got.tobytes()

    def test_student_layers_harden_to_init(self):
        teacher = random_net((16, 24, 8), seed=6)
        calib = np.random.default_rng(6).normal(size=(16, 96))
        student = build_student(teacher, bits=3, k=10**9, d=4, kmeans_iters=10, seed=0,
                                init="hessian", calib=calib)
        quant = distill._student_quantizer(student)
        hardened = quant.layer_weights(quant.forward(quant.centroids, hard=True).what)
        x, w_qs = calib, []
        for t_layer, layer, got in zip(teacher.layers, student.layers, hardened):
            init, _ = curvature_init(t_layer.weight, x, layer.params)
            assert layer.base.tobytes() == init.base.tobytes()
            w_qs.append(np.ascontiguousarray(init.w_q))
            assert got.tobytes() == w_qs[-1].tobytes()
            x = np.maximum(t_layer.weight @ x, 0.0)
        want = forward_logits(TinyNet([Layer(weight=w) for w in w_qs]), calib)
        assert forward_logits(student, calib, mode="hard").tobytes() == want.tobytes()

    def test_optimize_blockwise_takes_the_base(self):
        W, p, cb = clipped_layer(5, (16, 24), 8, 12)
        X = np.random.default_rng(5).normal(size=(24, 40))
        base = np.floor(W / p.scale[:, None]) + 1.0
        cfg = FinetuneConfig(steps=3, lam=0.0)
        _, with_base = optimize_blockwise(W, X, p, cb, cfg, base=base)
        _, without = optimize_blockwise(W, X, p, cb, cfg)
        want = ref_objective(W, X @ X.T, base, p, cb, 0.0, cfg.beta_high)[0]
        assert with_base[0] == want != without[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.5])
    def test_base_must_be_finite_integers(self, bad):
        W, p, cb = clipped_layer(6, (16, 24), 8, 12)
        base = np.floor(W / p.scale[:, None])
        base[3, 5] = bad
        with pytest.raises(errors.DomainError, match="base"):
            LayerQuantizer([(W, p, cb, base)])

    def test_base_must_match_the_weights(self):
        W, p, cb = clipped_layer(7, (16, 24), 8, 12)
        with pytest.raises(errors.ShapeMismatch, match="base"):
            LayerQuantizer([(W, p, cb, np.zeros((24, 16)))])


def step_peak(step):
    """Peak traced bytes one call of ``step`` holds above what is in use
    when it starts, measured after one warm-up call."""
    step()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start


class TestStepMemory:
    """A step holds one layer-sized array per layer, its dequantized
    weights, and otherwise k x d temporaries. One more layer-sized
    temporary, even a short-lived one, takes the peak past 1.5 times the
    layers' bytes: the e2e net has two layers for that reason."""

    SHAPE, D, K = (256, 256), 8, 64  # k * d is 0.8% of the layer's entries

    def test_blockwise_step(self):
        W, p, cb = clipped_layer(30, self.SHAPE, self.D, self.K)
        X = np.random.default_rng(30).normal(size=(256, 512))
        quant, G = optim._layer_setup(W, X, p, cb)
        state = optim.AdamState.for_params(cb.centroids)
        centroids = cb.centroids.copy()

        def step():
            nonlocal centroids
            _, grad = optim._blockwise_objective(quant, G, centroids, 0.01, 10.0)
            centroids = adam_step(state, centroids, grad, 1e-2)

        assert step_peak(step) <= 1.5 * W.nbytes

    def test_e2e_step(self):
        layers = [Layer(*clipped_layer(31 + i, self.SHAPE, self.D, self.K))
                  for i in range(2)]
        student = TinyNet(layers)
        teacher = random_net(student.dims, seed=31)
        quant = distill._student_quantizer(student)
        centroids = quant.centroids
        state = optim.AdamState.for_params(centroids)
        x = np.random.default_rng(31).normal(size=256)
        log_pt = distill._log_softmax(distill.forward_logits(teacher, x))

        def step():
            nonlocal centroids
            grad = distill._e2e_step(quant, centroids, x, log_pt, 0.01, 10.0, 1.0)[3]
            centroids = adam_step(state, centroids, grad, 1e-2)

        assert step_peak(step) <= 1.5 * sum(l.weight.nbytes for l in layers)
