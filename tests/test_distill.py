import math

import numpy as np
import pytest
from scipy.special import expit, log_softmax

from vqround import distill, errors, optim, quantize, reparam
from vqround.distill import (
    Layer,
    TinyNet,
    build_student,
    e2e_finetune,
    e2e_step,
    forward_logits,
    kl_loss,
    random_net,
)
from vqround.optim import FinetuneConfig, warmup_steps
from vqround.quantize import (
    GAMMA,
    HARD_THRESHOLD,
    ZETA,
    QuantParams,
    RoundingSpec,
    inverse_rectified_sigmoid,
)
from vqround.reparam import Codebook, fit_codebook, vq_reconstruct


class TestTinyNet:
    def test_dims(self):
        net = random_net((16, 32, 4), seed=0)
        assert net.dims == (16, 32, 4)

    def test_incompatible_layers_rejected(self):
        with pytest.raises(errors.ArchitectureMismatch):
            TinyNet(layers=[Layer(weight=np.zeros((3, 2))), Layer(weight=np.zeros((4, 5)))])

    @pytest.mark.parametrize("make", [lambda: TinyNet(layers=[]), lambda: random_net((4,))],
                             ids=["no-layers", "one-dim"])
    def test_net_without_layers_is_refused(self, make):
        # .dims, forward_logits and e2e_finetune each reached a bare
        # IndexError on an empty layer list.
        with pytest.raises(errors.ArchitectureMismatch, match="at least one layer"):
            make()

    def test_forward_shapes(self):
        net = random_net((6, 8, 3), seed=1)
        y = forward_logits(net, np.zeros((6, 5)))
        assert y.shape == (3, 5)

    def test_forward_rejects_wrong_input_dim(self):
        net = random_net((6, 8, 3), seed=1)
        with pytest.raises(errors.ShapeMismatch):
            forward_logits(net, np.zeros((7, 2)))


class TestKlLoss:
    def test_identical_logits(self):
        z = np.array([[0.3, -1.2, 4.0]])
        assert kl_loss(z, z) == pytest.approx(0.0, abs=1e-15)

    def test_two_class_closed_form(self):
        # student uniform, teacher (0.25, 0.75):
        # KL = 0.5 ln(0.5/0.25) + 0.5 ln(0.5/0.75)
        s = np.array([[0.0, 0.0]])
        t = np.array([[0.0, math.log(3.0)]])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_loss(s, t) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.14384, abs=1e-5)

    def test_grows_with_teacher_gap(self):
        s = np.array([[0.0, 0.0]])
        assert kl_loss(s, np.array([[0.0, 10.0]])) > kl_loss(s, np.array([[0.0, 5.0]]))

    def test_temperature_softens(self):
        s = np.array([[0.0, 0.0]])
        t = np.array([[0.0, 4.0]])
        assert kl_loss(s, t, temperature=4.0) < kl_loss(s, t, temperature=1.0)

    def test_batch_mean(self):
        s = np.array([[0.0, 0.0], [0.0, 0.0]])
        t = np.array([[0.0, 1.0], [0.0, 1.0]])
        single = kl_loss(s[:1], t[:1])
        assert kl_loss(s, t) == pytest.approx(single)

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            kl_loss(np.zeros((1, 2)), np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(), (2, 3, 4)])
    def test_logits_that_are_not_1d_or_2d_are_refused(self, shape):
        # 0-d logits raised a bare TypeError and 3-d ones returned a float.
        with pytest.raises(errors.ShapeMismatch, match="1-D or 2-D"):
            kl_loss(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(2, 0), (0,), (0, 3)],
                             ids=["no-classes", "no-classes-1d", "empty-batch"])
    def test_empty_logits_are_refused(self, shape):
        # No classes raised numpy's bare ValueError from the log-softmax's
        # max; an empty batch returned NaN with RuntimeWarnings.
        with pytest.raises(errors.ShapeMismatch, match="at least one row and one class"):
            kl_loss(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("shape, scale, temperature", [
        ((16, 1), 1.0, 1.0), ((16, 1), 1.0, 1.5), ((16, 256), 3.0, 1.0), ((3, 5), 1000.0, 1.0),
        ((3, 5), 1000.0, 2.5), ((1, 4), 1.0, 1.0), ((7, 2), 1e-300, 1.0),
    ])
    def test_log_softmax_is_scipys_byte_for_byte(self, shape, scale, temperature):
        z = scale * np.random.default_rng(shape[1]).normal(size=shape)
        z[0, 0] = 1000.0 * np.sign(scale)
        want = log_softmax(z / temperature, axis=0)
        assert distill._log_softmax(z / temperature).tobytes() == want.tobytes()

    def test_log_softmax_of_non_finite_columns_is_scipys(self):
        z = np.array([[-np.inf, np.inf, 1.0], [-np.inf, 0.0, -np.inf]])
        with np.errstate(invalid="ignore"):
            want = log_softmax(z, axis=0)
            got = distill._log_softmax(z)
        assert got.tobytes() == want.tobytes()


def grid_aligned_teacher(dims, seed=0, bits=3):
    """Teacher whose weights already sit on each layer's integer grid."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        scale = rng.uniform(0.05, 0.2, size=fan_out)
        grid = rng.integers(0, 2**bits, size=(fan_out, fan_in))
        layers.append(Layer(weight=scale[:, None] * grid))
    return TinyNet(layers=layers)


class TestBuildStudent:
    def test_layers_carry_codebooks(self):
        teacher = random_net((6, 8, 3), seed=2)
        student = build_student(teacher, bits=3, k=4, d=4, kmeans_iters=20, seed=0)
        for layer in student.layers:
            assert layer.codebook is not None
            assert layer.params is not None
        assert np.array_equal(student.layers[0].weight, teacher.layers[0].weight)

    def test_k_clamped_to_block_count(self):
        teacher = random_net((4, 4, 2), seed=3)
        student = build_student(teacher, bits=3, k=4096, d=4, kmeans_iters=10, seed=0)
        assert student.layers[0].codebook.k == 4  # 16 entries / d=4
        assert student.layers[1].codebook.k == 2  # 8 entries / d=4

    def test_hessian_init_needs_calibration(self):
        teacher = random_net((4, 4, 2), seed=4)
        with pytest.raises(errors.DomainError):
            build_student(teacher, bits=3, k=4, d=4, init="hessian")

    def test_hessian_init_runs(self):
        teacher = random_net((4, 6, 2), seed=5)
        calib = np.random.default_rng(5).normal(size=(4, 32))
        student = build_student(
            teacher, bits=3, k=4, d=4, kmeans_iters=10, seed=0,
            init="hessian", calib=calib,
        )
        assert len(student.layers) == 2


def clipped_saturated_layer(seed, shape=(16, 24)):
    """Layer (16x24 by default) whose grid is narrower than its rows and
    whose latents reach far past the sigmoid's clip points."""
    rng = np.random.default_rng(seed)
    W = rng.normal(size=shape)
    p = QuantParams(bits=3, scale=0.7 * np.ptp(W, axis=1) / 7, zero=np.full(shape[0], 4))
    cb = Codebook(centroids=3.0 * rng.normal(size=(20, 8)),
                  indices=rng.integers(0, 20, size=shape[0] * shape[1] // 8), shape=shape)
    return Layer(weight=W, params=p, codebook=cb)


def gathered_chain_weight(layer, mode):
    """Weights by the element-wise chain: gather the latent matrix, apply
    the stretched sigmoid, harden, then quantize with floor(W/s) + H."""
    g = GAMMA + (ZETA - GAMMA) * expit(vq_reconstruct(layer.codebook))
    H = np.clip(g, 0.0, 1.0)
    if mode == "hard":
        H = np.where(H >= HARD_THRESHOLD, 1.0, 0.0)
    p = layer.params
    s, z = p.scale[:, None], p.zero[:, None]
    v = np.floor(layer.weight / s) + H + z
    masks = {"sat_low": g <= 0.0, "sat_high": g >= 1.0,
             "clip_low": v < p.q_min, "clip_high": v > p.q_max}
    return s * (np.clip(v, p.q_min, p.q_max) - z), masks


def quantizer_weight(layer, mode):
    """The layer's weight from one forward of a quantizer over it alone."""
    quant = optim.LayerQuantizer([(layer.weight, layer.params, layer.codebook, layer.base)])
    fwd = quant.forward(layer.codebook.centroids, hard=mode == "hard")
    return fwd.what.reshape(layer.weight.shape)


class TestEffectiveWeight:
    """A layer's weight under a rounding mode: the quantizer's soft or hard
    forward, and the logits ``forward_logits`` takes through it."""

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_gathered_chain(self, seed, mode):
        layer = clipped_saturated_layer(seed)
        want, masks = gathered_chain_weight(layer, mode)
        for name, mask in masks.items():
            assert mask.any(), f"no {name} entries exercised"
        assert np.array_equal(quantizer_weight(layer, mode), want)
        if mode == "hard":
            x = np.random.default_rng(seed).normal(size=(24, 5))
            got = forward_logits(TinyNet([layer]), x, mode="hard")
            assert got.tobytes() == (quantizer_weight(layer, mode) @ x).tobytes()

    def test_fp_is_the_weight(self):
        layer = clipped_saturated_layer(2)
        x = np.random.default_rng(2).normal(size=(24, 5))
        want = layer.weight @ x
        assert forward_logits(TinyNet([layer]), x, mode="fp").tobytes() == want.tobytes()
        assert forward_logits(TinyNet([layer]), x).tobytes() == want.tobytes()

    def test_unknown_mode(self, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("an unknown mode ran the network")

        monkeypatch.setattr(distill, "_activations", no_forward)
        # With codebooks and without: a net of weights alone is refused too.
        for net in (TinyNet([clipped_saturated_layer(3)]), random_net((24, 8, 3), seed=1)):
            for mode in ("soft-ish", "soft", "bogus", "HARD", ""):
                with pytest.raises(errors.DomainError, match="mode"):
                    forward_logits(net, np.zeros((24, 2)), mode=mode)

    def test_mode_in_place_of_the_spec_is_refused(self, monkeypatch):
        # The third parameter is the RoundingSpec that the benchmark
        # passes; a mode given there would otherwise be ignored and run
        # the fp forward.
        net = TinyNet([clipped_saturated_layer(3)])
        x = np.random.default_rng(3).normal(size=(24, 2))
        want = forward_logits(net, x, mode="hard")
        assert forward_logits(net, x, RoundingSpec(), mode="hard").tobytes() == want.tobytes()

        def no_forward(*args, **kwargs):
            raise AssertionError("a misplaced mode ran the network")

        monkeypatch.setattr(distill, "_activations", no_forward)
        for mode in ("hard", "fp"):
            with pytest.raises(errors.DomainError, match="RoundingSpec"):
                forward_logits(net, x, mode)

    def test_codebook_shape_mismatch(self):
        layer = clipped_saturated_layer(4)
        layer.weight = layer.weight[:, :16]
        with pytest.raises(errors.ShapeMismatch):
            forward_logits(TinyNet([layer]), np.zeros((16, 2)), mode="hard")

    @pytest.mark.parametrize("bare", [[0], [1], [0, 1]])
    def test_hard_mode_needs_a_codebook_on_every_layer(self, bare):
        teacher = random_net((6, 8, 3), seed=18)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=5, seed=0)
        for i in bare:
            student.layers[i].codebook = None
        x = np.zeros((6, 2))
        with pytest.raises(errors.ArchitectureMismatch, match=f"layer {bare[0]}"):
            forward_logits(student, x, mode="hard")
        # The weights alone still run.
        assert forward_logits(student, x).shape == (3, 2)


def masks_stable_under(student, x, li, i, j, h):
    """True when probing centroid (i, j) of layer li leaves every clip,
    saturation, and ReLU mask unchanged."""

    def snapshot():
        quant = distill._student_quantizer(student)
        fwd = quant.forward(quant.centroids)
        masks = [fwd.clip_active.copy()]
        a = np.asarray(x, dtype=np.float64)[:, None]
        for idx, (layer, what) in enumerate(zip(student.layers, quant.layer_weights(fwd.what))):
            g = GAMMA + (ZETA - GAMMA) * expit(vq_reconstruct(layer.codebook))
            masks.append((g > 0) & (g < 1))
            z = what @ a
            if idx < len(student.layers) - 1:
                masks.append(z > 0)
                a = np.maximum(z, 0.0)
        return masks

    cb = student.layers[li].codebook
    base = snapshot()
    for delta in (h, -h):
        cb.centroids[i, j] += delta
        probed = snapshot()
        cb.centroids[i, j] -= delta
        if not all(np.array_equal(m0, m1) for m0, m1 in zip(base, probed)):
            return False
    return True


def fd_check_e2e(teacher, student, x, lam, beta, temperature=1.0, h=1e-4):
    _, _, _, grads = e2e_step(teacher, student, x, lam, beta, temperature)
    checked, worst = 0, 0.0
    for li, layer in enumerate(student.layers):
        cb = layer.codebook
        for i in range(cb.k):
            for j in range(cb.d):
                if not masks_stable_under(student, x, li, i, j, h):
                    continue
                cb.centroids[i, j] += h
                lp, _, _, _ = e2e_step(teacher, student, x, lam, beta, temperature)
                cb.centroids[i, j] -= 2 * h
                lm, _, _, _ = e2e_step(teacher, student, x, lam, beta, temperature)
                cb.centroids[i, j] += h
                fd = (lp - lm) / (2 * h)
                rel = abs(grads[li][i, j] - fd) / max(abs(fd), 1e-10)
                worst = max(worst, rel)
                checked += 1
    return checked, worst


def direct_e2e(student, teacher_logits, x, lam, beta, temperature):
    """KL, regularizer and per-layer centroid gradients of KL + lam R for
    beta > 1, with the quantizer's backward taken entry by entry."""
    n_layers = len(student.layers)
    chains, acts, pre = [], [x], []
    for i, layer in enumerate(student.layers):
        cb, p = layer.codebook, layer.params
        sig = expit(cb.centroids[cb.indices].reshape(layer.weight.shape))
        g = GAMMA + (ZETA - GAMMA) * sig
        H = np.clip(g, 0.0, 1.0)
        s, z = p.scale[:, None], p.zero[:, None]
        v = np.floor(layer.weight / s) + H + z
        what = s * (np.clip(v, p.q_min, p.q_max) - z)
        chains.append((sig, g, H, v, what))
        pre.append(what @ acts[-1])
        acts.append(np.maximum(pre[-1], 0.0) if i < n_layers - 1 else pre[-1])

    log_ps = acts[-1] / temperature
    log_ps = log_ps - np.log(np.sum(np.exp(log_ps), axis=0))
    log_pt = teacher_logits / temperature
    log_pt = log_pt - np.log(np.sum(np.exp(log_pt), axis=0))
    ps = np.exp(log_ps)
    kl_cols = np.sum(ps * (log_ps - log_pt), axis=0)
    delta = ps * (log_ps - log_pt - kl_cols) / (temperature * x.shape[1])

    reg, grads, masks = 0.0, [None] * n_layers, []
    for i in range(n_layers - 1, -1, -1):
        layer = student.layers[i]
        cb, p = layer.codebook, layer.params
        sig, g, H, v, what = chains[i]
        t = 2.0 * H - 1.0
        reg += np.sum(1.0 - np.abs(t) ** beta)
        d_h = (delta @ acts[i].T) * p.scale[:, None] * ((v > p.q_min) & (v < p.q_max))
        d_h = d_h + lam * -2.0 * beta * np.sign(t) * np.abs(t) ** (beta - 1.0)
        d_a = d_h * (ZETA - GAMMA) * sig * (1.0 - sig) * ((g > 0.0) & (g < 1.0))
        grads[i] = np.zeros_like(cb.centroids)
        for block, c in enumerate(cb.indices):
            grads[i][c] += d_a.reshape(-1, cb.d)[block]
        masks.append({"clip_low": v <= p.q_min, "clip_high": v >= p.q_max,
                      "sat_low": g <= 0.0, "sat_high": g >= 1.0})
        if i > 0:
            delta = (what.T @ delta) * (pre[i - 1] > 0.0)
    return float(np.mean(kl_cols)), reg, grads, masks


class TestE2EStep:
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_matches_direct_oracle(self, lam):
        student = TinyNet(layers=[clipped_saturated_layer(5),
                                  clipped_saturated_layer(6, shape=(10, 16))])
        teacher = random_net(student.dims, seed=5)
        x = np.random.default_rng(5).normal(size=(24, 3))
        teacher_logits = forward_logits(teacher, x)
        beta, temperature = 3.0, 1.5
        want_kd, want_reg, want_grads, masks = direct_e2e(
            student, teacher_logits, x, lam, beta, temperature)
        for layer_masks in masks:
            for name, mask in layer_masks.items():
                assert mask.any(), f"no {name} entries exercised"
        total, kd, reg, grads = e2e_step(teacher, student, x, lam, beta, temperature)
        assert abs(kd - want_kd) <= 1e-12 * want_kd
        assert abs(reg - want_reg) <= 1e-12 * want_reg
        assert total == kd + lam * reg
        for got, want in zip(grads, want_grads):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_gradient_matches_finite_differences(self):
        teacher = random_net((6, 10, 4), seed=3)
        student = build_student(teacher, bits=4, k=6, d=4, kmeans_iters=50, seed=3)
        x = np.random.default_rng(3).normal(size=6)
        checked, worst = fd_check_e2e(teacher, student, x, lam=1e-2, beta=4.0)
        assert checked >= 20
        assert worst < 1e-4

    def test_exact_grid_teacher_zero_kd(self):
        teacher = grid_aligned_teacher((6, 8, 3), seed=7)
        # Exact codebooks reproduce the (binary) residual seed, so the
        # soft-quantized student equals the teacher.
        student = build_student(teacher, bits=3, k=10**9, d=4, kmeans_iters=10, seed=0)
        _, kd, _, _ = e2e_step(teacher, student, np.ones(6), lam=0.0, beta=5.0)
        assert kd == pytest.approx(0.0, abs=1e-12)

    def test_input_of_wrong_length_raises_shape_mismatch(self):
        teacher = random_net((6, 10, 4), seed=3)
        student = build_student(teacher, bits=4, k=6, d=4, kmeans_iters=5, seed=3)
        with pytest.raises(errors.ShapeMismatch,
                           match=r"shape \(5,\) is not 1-D or 2-D with leading dim 6"):
            e2e_step(teacher, student, np.ones(5), lam=0.0, beta=5.0)

    @pytest.mark.parametrize("shape", [(), (6, 2, 2), (6, 8, 2)])
    @pytest.mark.parametrize("entry", ["fp", "hard", "e2e_step"])
    def test_input_that_is_not_columns_raises_shape_mismatch(self, entry, shape):
        # A 0-d input has no leading dim, and a 3-D one with leading dim 6
        # passes a check of that dim alone; both must fail as
        # ShapeMismatch, not as numpy's IndexError or matmul ValueError.
        teacher = random_net((6, 8, 3), seed=18)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=5, seed=0)
        x = np.zeros(shape)
        with pytest.raises(errors.ShapeMismatch, match="is not 1-D or 2-D with leading dim 6"):
            if entry == "e2e_step":
                e2e_step(teacher, student, x, lam=0.0, beta=5.0)
            else:
                forward_logits(student, x, mode=entry)


def count_forwards(monkeypatch):
    """Record the ``hard`` flag of every quantizer forward."""
    forward, flags = optim.LayerQuantizer.forward, []

    def counted(self, centroids, hard=False):
        flags.append(hard)
        return forward(self, centroids, hard)

    monkeypatch.setattr(optim.LayerQuantizer, "forward", counted)
    return flags


def count_quantizers(monkeypatch):
    """Record the layer count of every quantizer ``distill`` builds."""
    quantizer, built = distill.LayerQuantizer, []

    def counted(layers):
        built.append(len(layers))
        return quantizer(layers)

    monkeypatch.setattr(distill, "LayerQuantizer", counted)
    return built


def count_scatters(monkeypatch):
    """Record the shape of every centroid scatter a quantizer builds."""
    csr, built = optim.csr_array, []

    def counted(*args, shape):
        built.append(shape)
        return csr(*args, shape=shape)

    monkeypatch.setattr(optim, "csr_array", counted)
    return built


class TestLazyScatter:
    """The scatter and the block counts serve the backward alone."""

    def student(self):
        teacher = random_net((6, 8, 3), seed=2)
        return build_student(teacher, bits=3, k=4, d=4, kmeans_iters=20, seed=0)

    def test_hard_forward_builds_no_scatter(self, monkeypatch):
        student = self.student()
        built = count_scatters(monkeypatch)
        forward_logits(student, np.ones((6, 2)), mode="hard")
        assert built == []

    def test_backward_builds_the_scatter_once(self, monkeypatch):
        student = self.student()
        built = count_scatters(monkeypatch)
        quant = optim.LayerQuantizer([(l.weight, l.params, l.codebook, l.base)
                                      for l in student.layers])
        assert built == []
        for _ in range(3):
            fwd = quant.forward(quant.centroids)
            quant.dwhat[...] = 1.0
            quant.backward(fwd, 0.01, 2.0)
        assert built == [(8, 18)]


def mean_hard_kl(teacher, student, data, temperature):
    """The hard KL that ``e2e_finetune`` reports, at the student's
    codebooks: a run of no steps takes it there."""
    cfg = FinetuneConfig(steps=0, temperature=temperature)
    return e2e_finetune(teacher, student, data, cfg).hard_kl_final


class TestMeanHardKl:
    @pytest.mark.parametrize("temperature", [1.0, 2.5])
    def test_batched_matches_per_column_mean(self, temperature):
        teacher = random_net((6, 10, 4), seed=13)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=20, seed=0)
        data = [np.random.default_rng(i).normal(size=6) for i in range(24)]
        per_column = np.mean([
            kl_loss(forward_logits(student, x, mode="hard").T,
                    forward_logits(teacher, x, mode="fp").T, temperature)
            for x in data
        ])
        assert per_column > 0.0
        got = mean_hard_kl(teacher, student, data, temperature)
        assert abs(got - per_column) <= 1e-12 * per_column

    def test_one_hard_forward_and_no_latent_gather(self, monkeypatch):
        teacher = random_net((6, 10, 8, 4), seed=15)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=20, seed=0)
        data = [np.random.default_rng(i).normal(size=6) for i in range(12)]
        hard_flags = count_forwards(monkeypatch)

        def no_gather(*args, **kwargs):
            raise AssertionError("hard evaluation gathered the latent matrix")

        for mod in (distill, optim, quantize, reparam):
            monkeypatch.setattr(mod, "vq_reconstruct", no_gather, raising=False)
        built = count_quantizers(monkeypatch)
        # A run of no steps has no warm-up, so it takes the hard KL twice,
        # at the end of warm-up and at the end, each through one hard
        # forward of the run's one quantizer over every layer.
        mean_hard_kl(teacher, student, data, 1.0)
        assert built == [3]
        assert hard_flags == [True, True]


def refuse_work(monkeypatch):
    """Make any network forward, quantizer forward or step fail."""
    def no_work(*args, **kwargs):
        raise AssertionError("work ran on inputs that should have been refused")

    for name in ("_activations", "_e2e_step", "adam_step"):
        monkeypatch.setattr(distill, name, no_work)
    monkeypatch.setattr(optim.LayerQuantizer, "forward", no_work)


class TestE2EFinetune:
    def test_architecture_mismatch(self):
        teacher = random_net((4, 6, 2), seed=8)
        student = build_student(random_net((4, 8, 2), seed=8), bits=3, k=4, d=4)
        with pytest.raises(errors.ArchitectureMismatch):
            e2e_finetune(teacher, student, [np.zeros(4)], FinetuneConfig(steps=1))

    @pytest.mark.parametrize("entry", ["e2e_finetune", "e2e_step"])
    def test_output_dims_mismatch_refused_before_any_forward(self, monkeypatch, entry):
        # Equal input dims, so only the dims check can tell the two apart.
        teacher = random_net((6, 8, 4), seed=8)
        student = build_student(random_net((6, 8, 3), seed=8), bits=3, k=4, d=4)
        refuse_work(monkeypatch)
        with pytest.raises(errors.ArchitectureMismatch, match=r"\(6, 8, 4\) != .*\(6, 8, 3\)"):
            if entry == "e2e_finetune":
                e2e_finetune(teacher, student, [np.zeros(6)], FinetuneConfig(steps=1))
            else:
                e2e_step(teacher, student, np.zeros(6), lam=0.0, beta=5.0)

    @pytest.mark.parametrize("shapes, bad", [
        ([(6,), (5,)], 1),
        ([(5,), (6,), (6,)], 0),
        ([(6, 2), (6,), (7, 2)], 2),
        ([(6,), ()], 1),
        ([(6,), (6, 2, 2)], 1),
    ])
    def test_sample_of_another_length_refused_before_any_step(self, monkeypatch, shapes, bad):
        teacher = random_net((6, 8, 3), seed=18)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=5, seed=0)
        refuse_work(monkeypatch)
        data = [np.zeros(shape) for shape in shapes]
        with pytest.raises(errors.ShapeMismatch, match=f"sample {bad} of shape"):
            e2e_finetune(teacher, student, data, FinetuneConfig(steps=4, warmup_frac=0.0))

    def test_student_without_codebooks_rejected(self):
        teacher = random_net((4, 6, 2), seed=9)
        with pytest.raises(errors.ArchitectureMismatch):
            e2e_finetune(teacher, random_net((4, 6, 2), seed=9),
                         [np.zeros(4)], FinetuneConfig(steps=1))

    def test_one_quantizer_forward_per_step_over_all_layers(self, monkeypatch):
        teacher = random_net((6, 10, 8, 4), seed=16)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=20, seed=0)
        data = [np.random.default_rng(i).normal(size=6) for i in range(5)]
        cfg = FinetuneConfig(steps=12, warmup_frac=0.25)
        adam_calls, adam = [], distill.adam_step

        def counted_adam(state, params, grads, lr):
            adam_calls.append(params.shape)
            return adam(state, params, grads, lr)

        flags = count_forwards(monkeypatch)
        built = count_quantizers(monkeypatch)
        monkeypatch.setattr(distill, "adam_step", counted_adam)
        e2e_finetune(teacher, student, data, cfg)
        w = warmup_steps(cfg)
        # One quantizer over the three layers; per step one soft forward and
        # one Adam update on the stacked centroids; one hard forward at the
        # end of warm-up and one at the end.
        assert built == [3]
        assert flags == [False] * w + [True] + [False] * (cfg.steps - w) + [True]
        stacked = sum(layer.codebook.k for layer in student.layers)
        assert adam_calls == [(stacked, 4)] * cfg.steps

    @pytest.mark.parametrize("entry", ["e2e_finetune", "e2e_step"])
    @pytest.mark.parametrize("differs", ["block length", "bits"])
    def test_layers_that_cannot_stack_are_refused_before_any_step(self, monkeypatch, entry,
                                                                  differs):
        teacher = random_net((6, 8, 3), seed=17)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=5, seed=0)
        layer = student.layers[1]
        if differs == "block length":
            layer.codebook = reparam.kmeans_fit(
                reparam.flatten_blocks(np.zeros(layer.weight.shape), 2), 3, iters=2,
                shape=layer.weight.shape)
        else:
            layer.params = quantize.compute_quant_params(layer.weight, 4)

        refuse_work(monkeypatch)
        data = [np.zeros(6)]
        with pytest.raises(errors.ArchitectureMismatch, match="layer 1 has"):
            if entry == "e2e_finetune":
                e2e_finetune(teacher, student, data, FinetuneConfig(steps=2, warmup_frac=0.0))
            else:
                e2e_step(teacher, student, data[0], lam=0.0, beta=5.0)

    def test_warmup_loss_is_pure_distillation(self):
        teacher = random_net((6, 8, 3), seed=10)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=20, seed=0)
        data = [np.random.default_rng(i).normal(size=6) for i in range(16)]
        cfg = FinetuneConfig(steps=40, warmup_frac=0.25)
        res = e2e_finetune(teacher, student, data, cfg)
        w = warmup_steps(cfg)
        assert w == 10
        assert np.array_equal(res.loss_trace[:w], res.kd_trace[:w])
        assert np.all(res.loss_trace[w:] >= res.kd_trace[w:])

    def test_indices_frozen(self):
        teacher = random_net((6, 8, 3), seed=11)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=20, seed=0)
        before = [layer.codebook.indices.copy() for layer in student.layers]
        data = [np.random.default_rng(i).normal(size=6) for i in range(8)]
        res = e2e_finetune(teacher, student, data, FinetuneConfig(steps=25))
        for idx, cb in zip(before, res.codebooks):
            assert np.array_equal(idx, cb.indices)

    def test_round_robin_is_deterministic(self):
        teacher = random_net((6, 8, 3), seed=12)
        data = [np.random.default_rng(i).normal(size=6) for i in range(8)]
        traces = []
        for _ in range(2):
            student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=20, seed=0)
            res = e2e_finetune(teacher, student, data, FinetuneConfig(steps=15))
            traces.append(res.loss_trace)
        assert np.array_equal(traces[0], traces[1])

    def test_teacher_logits_computed_once_per_distinct_batch(self, monkeypatch):
        teacher = random_net((6, 8, 3), seed=14)
        data = [np.random.default_rng(i).normal(size=6) for i in range(5)]
        cfg = FinetuneConfig(steps=3 * len(data))
        real_forward, real_step = distill.forward_logits, distill._e2e_step
        batches = []

        def counting_forward(net, x, *args, **kwargs):
            if net is teacher and np.ndim(x) == 1:
                batches.append(np.array(x))
            return real_forward(net, x, *args, **kwargs)

        def uncached_step(quant, centroids, x, log_pt, lam, beta, temperature):
            log_pt = distill._log_softmax(real_forward(teacher, x) / temperature)
            return real_step(quant, centroids, x, log_pt, lam, beta, temperature)

        monkeypatch.setattr(distill, "forward_logits", counting_forward)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=20, seed=0)
        cached = e2e_finetune(teacher, student, data, cfg)
        # Samples come round-robin, so each is seen three times but the
        # teacher runs once per sample.
        assert len(batches) == len(data)
        assert [b.tobytes() for b in batches] == [x.tobytes() for x in data]

        monkeypatch.setattr(distill, "_e2e_step", uncached_step)
        student = build_student(teacher, bits=3, k=6, d=4, kmeans_iters=20, seed=0)
        uncached = e2e_finetune(teacher, student, data, cfg)
        for name in ("loss_trace", "kd_trace", "reg_trace"):
            assert np.array_equal(getattr(cached, name), getattr(uncached, name))
        for a, b in zip(cached.codebooks, uncached.codebooks):
            assert np.array_equal(a.centroids, b.centroids)
