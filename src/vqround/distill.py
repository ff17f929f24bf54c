"""Toy teacher/student distillation over codebook parameters.

A tiny feed-forward network (linear layers, ReLU between, softmax head)
stands in for the full-size model pair: the student's weights are
frozen at the teacher's values and only the per-layer rounding
codebooks train, against a temperature-softened KL between student and
teacher logits plus the rounding regularizer after warm-up. All
gradients are computed analytically; there is no autodiff underneath.
The codebooks train together: one quantizer holds every layer, with the
layers' centroids stacked into one array, so a step runs one quantizer
forward, one backward and one Adam update whatever the depth. Every
layer's share of a step is byte for byte what a quantizer of its own
would give. Hard evaluation runs through the same stacked quantizer:
the run's own for the hard KL, one built over the net for
``forward_logits(mode="hard")``. The stacked quantizer carries the
student's weights, so the internals that run a step or a hard
evaluation take it alone, without the net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArchitectureMismatch, DomainError, ShapeMismatch
from .hessian import curvature_init, residual_init
from .optim import (
    AdamState,
    FinetuneConfig,
    LayerQuantizer,
    adam_step,
    anneal_beta,
    warmup_steps,
)
from .quantize import (
    QuantParams,
    RoundingSpec,
    compute_quant_params,
    inverse_rectified_sigmoid,
)
from .reparam import Codebook, flatten_blocks, kmeans_fit


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    params: QuantParams | None = None
    codebook: Codebook | None = None
    base: np.ndarray | None = None  # integer base of the rounding seed; floor(W/s) if None


@dataclass
class TinyNet:
    layers: list[Layer]

    def __post_init__(self):
        if not self.layers:
            raise ArchitectureMismatch("a net needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weight.shape[1] != prev.weight.shape[0]:
                raise ArchitectureMismatch(
                    f"layer dims {prev.weight.shape} -> {nxt.weight.shape} incompatible"
                )

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.layers[0].weight.shape[1],) + tuple(
            layer.weight.shape[0] for layer in self.layers
        )


def random_net(dims: tuple[int, ...], seed: int = 0) -> TinyNet:
    """Gaussian-init network with 1/sqrt(fan_in) weight scale."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        w = rng.normal(size=(fan_out, fan_in)) / np.sqrt(fan_in)
        layers.append(Layer(weight=w))
    return TinyNet(layers=layers)


def _check_input(x, n0: int, name: str = "input") -> None:
    """Refuse ``x`` unless it is one input column of length ``n0`` or a
    2-D batch of them."""
    if np.ndim(x) not in (1, 2) or np.shape(x)[0] != n0:
        raise ShapeMismatch(f"{name} of shape {np.shape(x)} is not 1-D or 2-D with "
                            f"leading dim {n0}")


def _activations(weights, x) -> list[np.ndarray]:
    """Every layer's output for input columns x of shape (n0, batch), run
    through the list of layer ``weights``: the input first, as float64
    columns, then each layer's ReLU output, then the logits."""
    a = np.asarray(x, dtype=np.float64)
    _check_input(a, weights[0].shape[1])
    if a.ndim == 1:
        a = a[:, None]
    last = len(weights) - 1
    acts = [a]
    for i, w in enumerate(weights):
        z = w @ a
        a = np.maximum(z, 0.0) if i < last else z
        acts.append(a)
    return acts


def forward_logits(net: TinyNet, x, spec: RoundingSpec = RoundingSpec(), mode: str = "fp") -> np.ndarray:
    """Logits for input columns x of shape (n0, batch), through the layers'
    float64 weights (``"fp"``) or one hard forward of the net's stacked
    quantizer (``"hard"``), which needs a codebook on every layer. ``spec``
    is unread, but a third argument that is not a ``RoundingSpec``, such
    as a mode passed positionally, is refused."""
    if not isinstance(spec, RoundingSpec):
        raise DomainError(f"expected a RoundingSpec, got {spec!r}; pass the mode as mode=")
    if mode not in ("fp", "hard"):
        raise DomainError(f"unknown weight mode {mode!r}")
    if mode == "fp":
        weights = [np.asarray(l.weight, dtype=np.float64) for l in net.layers]
        return _activations(weights, x)[-1]
    quant = _student_quantizer(net)
    return _hard_logits(quant, quant.centroids, x)


def kl_loss(student_logits, teacher_logits, temperature: float = 1.0) -> float:
    """Mean per-row KL of softened student vs teacher distributions.

    Rows are batch entries; the student distribution is the left
    argument of the divergence.
    """
    s = np.asarray(student_logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    if s.shape != t.shape:
        raise ShapeMismatch(f"logit shapes differ: {s.shape} vs {t.shape}")
    if s.ndim not in (1, 2):
        raise ShapeMismatch(f"logits must be 1-D or 2-D, got shape {s.shape}")
    if not s.size:
        raise ShapeMismatch(f"logits need at least one row and one class, got shape {s.shape}")
    if s.ndim == 1:
        s = s[None, :]
        t = t[None, :]
    return _kl_and_logit_grad(s.T, _log_softmax(t.T / temperature), temperature)[0]


def _log_softmax(z):
    """``scipy.special.log_softmax(z, axis=0)``, operation for operation,
    so byte for byte, without its array-API dispatch."""
    z_max = np.amax(z, axis=0, keepdims=True)
    z_max[~np.isfinite(z_max)] = 0
    tmp = z - z_max
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(tmp), axis=0, keepdims=True))
    return tmp - out


def _kl_and_logit_grad(student_logits, teacher_log_probs, temperature):
    """KL (mean over columns) and its gradient w.r.t. student logits.

    Logits are (classes, batch) columns here, matching the forward pass;
    ``teacher_log_probs`` is ``_log_softmax(teacher_logits / temperature)``,
    which a frozen teacher computes once per batch.
    """
    log_ps = _log_softmax(student_logits / temperature)
    ps = np.exp(log_ps)
    log_ratio = log_ps - teacher_log_probs
    per_col = np.sum(ps * log_ratio, axis=0)
    batch = student_logits.shape[1]
    grad = ps * (log_ratio - per_col[None, :]) / (temperature * batch)
    return float(np.mean(per_col)), grad


@dataclass
class E2EResult:
    codebooks: list[Codebook]
    loss_trace: np.ndarray
    kd_trace: np.ndarray
    reg_trace: np.ndarray
    hard_kl_warmup_end: float
    hard_kl_final: float


def _check_pair(teacher: TinyNet, student: TinyNet) -> None:
    """Refuse a student whose layer dims are not the teacher's."""
    if teacher.dims != student.dims:
        raise ArchitectureMismatch(f"teacher dims {teacher.dims} != student dims {student.dims}")


def _student_quantizer(student: TinyNet) -> LayerQuantizer:
    """One quantizer over every layer of the student, checked to stack."""
    for i, layer in enumerate(student.layers):
        if layer.codebook is None or layer.params is None:
            raise ArchitectureMismatch(f"student layer {i} carries no codebook")
    return LayerQuantizer([(l.weight, l.params, l.codebook, l.base) for l in student.layers])


def _hard_logits(quant, centroids, x):
    """Logits on ``x`` of the net that ``quant`` holds, every layer
    hard-rounded, through one hard forward at the stacked ``centroids``."""
    fwd = quant.forward(centroids, hard=True)
    return _activations(quant.layer_weights(fwd.what), x)[-1]


def e2e_step(
    teacher: TinyNet,
    student: TinyNet,
    x,
    lam: float,
    beta: float,
    temperature: float = 1.0,
) -> tuple[float, float, float, list[np.ndarray]]:
    """Loss terms and per-layer codebook gradients for one batch.

    Returns (total, kd, reg, grads). Backpropagation runs analytically
    through the softmax/KL head and the linear layers and ReLUs to each
    layer's weights; the codebook backward that blockwise optimization
    uses takes it on into the centroids.
    """
    _check_pair(teacher, student)
    quant = _student_quantizer(student)
    log_pt = _log_softmax(forward_logits(teacher, x) / temperature)
    total, kd, reg, grad = _e2e_step(quant, quant.centroids, x, log_pt, lam, beta, temperature)
    return total, kd, reg, quant.layer_centroids(grad)


def _e2e_step(quant, centroids, x, teacher_log_probs, lam, beta, temperature):
    """:func:`e2e_step` of the student that ``quant`` holds, at the stacked
    ``centroids``, against ``teacher_log_probs``, which must be the
    teacher's on ``x``; returns the stacked centroid gradient.
    ``e2e_finetune`` builds the quantizer once and the log-probabilities
    once per sample."""
    fwd = quant.forward(centroids)
    whats = quant.layer_weights(fwd.what)
    acts = _activations(whats, x)

    kd, delta = _kl_and_logit_grad(acts[-1], teacher_log_probs, temperature)

    for i in range(len(whats) - 1, -1, -1):
        np.matmul(delta, acts[i].T, out=quant.dwhats[i])
        if i > 0:
            delta = (whats[i].T @ delta) * (acts[i] > 0.0)
    reg, grad = quant.backward(fwd, lam, beta)
    return kd + lam * reg, kd, reg, grad


def e2e_finetune(
    teacher: TinyNet,
    student: TinyNet,
    data: list,
    cfg: FinetuneConfig,
) -> E2EResult:
    """Distill the student's codebooks against the frozen teacher.

    Samples are drawn round-robin, one per step. Through warm-up the
    objective is the distillation term alone; afterwards the annealed
    rounding regularizer joins with weight ``cfg.lam``. Codebook indices
    stay frozen throughout. One quantizer serves every layer, so a step
    runs one forward, one backward and one Adam update over the stacked
    centroids, which are written back to the student's codebooks at the
    end. The teacher is frozen, so its log-probabilities are computed
    once per sample, and once for the calibration batch of the hard KL.
    """
    _check_pair(teacher, student)
    quant = _student_quantizer(student)
    if not data:
        raise DomainError("empty calibration data")
    for i, sample in enumerate(data):
        _check_input(sample, teacher.dims[0], f"sample {i}")

    centroids = quant.centroids
    state = AdamState.for_params(centroids)
    x_all = np.column_stack(data)
    log_pt_all = _log_softmax(forward_logits(teacher, x_all) / cfg.temperature)

    def hard_kl():
        logits = _hard_logits(quant, centroids, x_all)
        return _kl_and_logit_grad(logits, log_pt_all, cfg.temperature)[0]

    w = warmup_steps(cfg)
    loss_trace = np.zeros(cfg.steps)
    kd_trace = np.zeros(cfg.steps)
    reg_trace = np.zeros(cfg.steps)
    hard_kl_warmup_end = np.nan
    if w == 0:
        hard_kl_warmup_end = hard_kl()

    teacher_log_probs = {}
    for t in range(1, cfg.steps + 1):
        sample = (t - 1) % len(data)
        if sample not in teacher_log_probs:
            logits = forward_logits(teacher, data[sample])
            teacher_log_probs[sample] = _log_softmax(logits / cfg.temperature)

        beta = anneal_beta(t, cfg)
        lam_t = 0.0 if t <= w else cfg.lam

        total, kd, reg, grad = _e2e_step(
            quant, centroids, data[sample], teacher_log_probs[sample], lam_t, beta,
            cfg.temperature,
        )
        kd_trace[t - 1] = kd
        reg_trace[t - 1] = reg
        loss_trace[t - 1] = total
        centroids = adam_step(state, centroids, grad, cfg.lr)

        if t == w:
            hard_kl_warmup_end = hard_kl()

    hard_kl_final = hard_kl()
    for layer, layer_centroids in zip(student.layers, quant.layer_centroids(centroids)):
        layer.codebook.centroids = layer_centroids
    return E2EResult(
        codebooks=[l.codebook for l in student.layers],
        loss_trace=loss_trace,
        kd_trace=kd_trace,
        reg_trace=reg_trace,
        hard_kl_warmup_end=float(hard_kl_warmup_end),
        hard_kl_final=float(hard_kl_final),
    )


def build_student(
    teacher: TinyNet,
    bits: int,
    k: int,
    d: int,
    kmeans_iters: int = 100,
    seed: int = 0,
    init: str = "residual",
    calib=None,
) -> TinyNet:
    """Clone the teacher with per-layer quant params and fitted codebooks.

    ``init`` picks the rounding seed: plain floor residuals or the
    curvature-compensated sweep (which needs calibration inputs and
    propagates them through the teacher to reach every layer; each layer
    keeps the sweep's integer base). K-means clusters the seed's latent
    preimage. The centroid count clamps to the number of blocks in each
    layer.
    """
    if init not in ("residual", "hessian"):
        raise DomainError(f"unknown init {init!r}")
    if init == "hessian":
        if calib is None:
            raise DomainError("hessian init requires calibration inputs")
        x_l = np.asarray(calib, dtype=np.float64)
        if x_l.ndim != 2 or x_l.shape[0] != teacher.dims[0]:
            raise ShapeMismatch(
                f"calibration shape {x_l.shape} does not feed input dim {teacher.dims[0]}"
            )

    layers = []
    for li, t_layer in enumerate(teacher.layers):
        W = np.asarray(t_layer.weight, dtype=np.float64)
        p = compute_quant_params(W, bits)
        base = None
        if init == "hessian":
            init_result = curvature_init(W, x_l, p)[0]
            h_seed, base = init_result.h_tilde, init_result.base
            x_l = np.maximum(W @ x_l, 0.0) if li < len(teacher.layers) - 1 else x_l
        else:
            h_seed = residual_init(W, p)

        blocks = flatten_blocks(inverse_rectified_sigmoid(h_seed), d)
        cb = kmeans_fit(blocks, min(k, len(blocks)), iters=kmeans_iters, seed=seed + li,
                        shape=W.shape)
        layers.append(Layer(weight=W.copy(), params=p, codebook=cb, base=base))
    return TinyNet(layers=layers)
