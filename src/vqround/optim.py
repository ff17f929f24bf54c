"""Codebook optimization: Adam, the sharpening schedule, and blockwise
reconstruction of a single linear layer.

The blockwise objective is the squared output reconstruction error
``||W X - What X||_F^2`` plus the weighted rounding regularizer. Both
are taken in Gram form from one soft-quantizer forward: with
``G = X X^T`` and ``E = W - What``, the error is ``<E G, E>`` and its
gradient w.r.t. ``What`` is ``-2 E G``, so a step costs one
(m, n) x (n, n) product no matter how many calibration columns there
are.

One backward, shared with the end-to-end distillation, carries a
gradient w.r.t. ``What`` into the centroids. An objective writes that
gradient into the quantizer's ``dwhats`` after the forward and then
calls the backward, which reads it there. Only the quantizer's part
of it (scale inside the active clip region, zero at and beyond the
boundaries) is per entry; it is scattered onto the k x d centroid
values. Every entry that gathers one centroid value shares its rounding
decision, so the regularizer, its derivative and the stretched
sigmoid's slope are taken once per centroid value, the regularizer
weighted by how many blocks use the centroid. The forward and this
backward are the methods of ``LayerQuantizer``, which a run builds once:
over its one layer in blockwise optimization, over every layer of the
student in end-to-end distillation. There it stacks the layers'
codebooks, so that a step runs one forward, one backward and one Adam
update for all of them, with each layer's outputs byte for byte those
of a quantizer of its own. Hard evaluation is the same forward with
binarized decisions; a single layer hardens without a quantizer through
``quantize.adaptive_quantize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArchitectureMismatch, DomainError, ShapeMismatch, StepOutOfRange
from scipy.sparse import csr_array

from .quantize import (
    GAMMA,
    ZETA,
    QuantParams,
    _base,
    _check_rows,
    _quantize_grid,
    _regularizer_terms,
    _stretched_sigmoid,
    hard_round,
    regularizer_grad,
)
from .reparam import Codebook


@dataclass
class FinetuneConfig:
    lr: float = 1e-2
    lam: float = 1e-2  # weight of the rounding regularizer
    beta_high: float = 20.0
    beta_low: float = 2.0
    steps: int = 5000
    warmup_frac: float = 0.1
    temperature: float = 1.0

    def __post_init__(self):
        for name in ("lr", "lam", "beta_high", "beta_low", "temperature"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not self.lam >= 0:
            raise DomainError(f"lam must be >= 0, got {self.lam}")
        if not self.beta_high >= self.beta_low > 0:
            raise DomainError(
                f"need beta_high >= beta_low > 0, got {self.beta_high}, {self.beta_low}"
            )
        if not 0.0 <= self.warmup_frac < 1.0:
            raise DomainError(f"warmup_frac must be in [0, 1), got {self.warmup_frac}")
        if self.steps < 0:
            raise DomainError(f"steps must be >= 0, got {self.steps}")
        if not self.lr > 0:
            raise DomainError(f"lr must be positive, got {self.lr}")
        if not self.temperature > 0:
            raise DomainError(f"temperature must be positive, got {self.temperature}")


def warmup_steps(cfg: FinetuneConfig) -> int:
    # Guard against float fuzz in warmup_frac * steps (0.1 * 5000 -> 500).
    return math.floor(cfg.warmup_frac * cfg.steps + 1e-9)


def anneal_beta(t: int, cfg: FinetuneConfig) -> float:
    """Sharpening exponent at step t (1-based).

    Holds beta_high through warm-up, then interpolates linearly down to
    beta_low at the final step.
    """
    if not 1 <= t <= cfg.steps:
        raise StepOutOfRange(f"step {t} outside [1, {cfg.steps}]")
    w = warmup_steps(cfg)
    if t <= w:
        return cfg.beta_high
    span = cfg.steps - (w + 1)
    u = 0.0 if span <= 0 else (t - (w + 1)) / span
    return cfg.beta_high + (cfg.beta_low - cfg.beta_high) * u


# Adam's moment decay rates and denominator guard.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params, dtype=np.float64),
                   v=np.zeros_like(params, dtype=np.float64))


def adam_step(state: AdamState, params, grads, lr: float) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameters.

    The moments are updated in place, each operation rounding as in
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2`` and
    ``params - lr m_hat / (sqrt(v_hat) + eps)``, so that a step allocates
    two arrays of the parameters' size, one of them the result.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeMismatch(
            f"params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    state.step += 1
    m, v = state.m, state.v
    tmp = np.multiply(grads, 1.0 - _BETA1)
    m *= _BETA1
    m += tmp
    np.square(grads, out=tmp)
    tmp *= 1.0 - _BETA2
    v *= _BETA2
    v += tmp
    update = np.divide(m, 1.0 - _BETA1**state.step)
    update *= lr
    np.divide(v, 1.0 - _BETA2**state.step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += _EPS
    update /= tmp
    return np.subtract(params, update, out=update)


@dataclass
class SoftQuantForward:
    """Quantizer outputs plus what the backward pass needs.

    ``what`` and ``clip_active`` run over every entry of the quantizer's
    layers, layer after layer, each row-major; ``h`` and ``slope`` are
    per centroid value, the layers' centroids stacked. A layer's rounding
    matrix is the gather of ``h`` through its indices.
    """

    what: np.ndarray  # dequantized weights, a new array on every forward
    clip_active: np.ndarray | None  # where the integer-range clip is inactive; None if hard
    h: np.ndarray  # rounding decisions in [0, 1]
    slope: np.ndarray  # dh/dA, zeroed where the sigmoid's clip saturates or h is hard


class LayerQuantizer:
    """The soft quantizer of a run's layers, built once per run: the one
    layer of blockwise optimization, or every layer of an e2e student.

    ``layers`` is a sequence of ``(W, params, codebook, base)``, with
    ``base`` None for ``floor(W / s)``; the layers must share one block
    length and one bit width. The quantizer holds what every step shares:
    each layer's checked float64 weights and, flat over all the layers'
    entries, the integer bases, the per-row zero-points and scales
    broadcast to the entries, and the buffers a step writes into. The
    codebooks stack into one: ``centroids`` holds the layers' centroids
    one layer after another, the indices are offset by the centroids of
    the layers before, and the block counts and the scatter run over
    the stack. Forward and backward take the stacked centroids, so one
    quantizer serves a run whose optimizer rebinds them.

    Each step operation is elementwise, a gather or scatter that keeps
    to each layer's own centroids, or a sum over one layer's contiguous
    slice, so every layer's outputs are byte for byte those of a
    quantizer built over that layer alone.

    The scatter is a CSR matrix whose row c holds a 1 at every block
    that uses centroid c, with the blocks in ascending order; its
    product with the per-block gradients therefore sums each centroid's
    blocks one after another in block order, from zero, exactly as
    ``np.bincount`` does. It and the block counts are built on the first
    backward, once per quantizer, so a hard evaluation builds neither.
    """

    def __init__(self, layers):
        layers = [(np.ascontiguousarray(W, dtype=np.float64), p, cb, base)
                  for W, p, cb, base in layers]
        _, p0, cb0, _ = layers[0]
        for i, (W, p, cb, _) in enumerate(layers):
            if cb.shape != W.shape:
                raise ShapeMismatch(f"codebook shape {cb.shape} != W shape {W.shape}")
            _check_rows(W, p)
            if (cb.d, p.bits) != (cb0.d, p0.bits):
                raise ArchitectureMismatch(
                    f"layer {i} has block length {cb.d} at {p.bits} bits, "
                    f"layer 0 {cb0.d} at {p0.bits}: their codebooks cannot stack"
                )
        self.weights = [W for W, _, _, _ in layers]
        self.d, self.q_min, self.q_max = cb0.d, p0.q_min, p0.q_max
        ends = np.cumsum([W.size for W in self.weights]).tolist()
        k_ends = np.cumsum([cb.k for _, _, cb, _ in layers]).tolist()
        self._spans = list(zip([0] + ends, ends))
        self._k_spans = list(zip([0] + k_ends, k_ends))
        size = ends[-1]
        # Broadcast to the entries: numpy runs an elementwise operation
        # 20-70% faster against a full array than against a per-row column
        # on rows of 64 to 1024 entries (1 BLAS thread, 2-core x86_64).
        self.base, self.zero, self.scale = np.empty(size), np.empty(size), np.empty(size)
        self.indices = np.empty(size // self.d, dtype=np.int64)
        self.centroids = np.empty((k_ends[-1], self.d))
        for (W, p, cb, base), base_out, zero, scale, (a, b), (k0, k1) in zip(
                layers, self.layer_weights(self.base), self.layer_weights(self.zero),
                self.layer_weights(self.scale), self._spans, self._k_spans):
            _base(W, p, base, out=base_out)
            zero[...] = p.zero[:, None]
            scale[...] = p.scale[:, None]
            np.add(cb.indices, k0, out=self.indices[a // self.d:b // self.d])
            self.centroids[k0:k1] = cb.centroids
        # Step buffers. The gathered rounding matrix becomes the clipped
        # grid values in place; dwhat takes dloss/dWhat, which the backward
        # consumes, each layer's part written through ``dwhats``.
        self._v = np.empty(size)
        self._active = np.empty(size, dtype=bool)
        self._below = np.empty(size, dtype=bool)
        self.dwhat = np.empty(size)
        self.dwhats = self.layer_weights(self.dwhat)

    @cached_property
    def _counts_and_scatter(self) -> tuple[np.ndarray, csr_array]:
        """The block counts, a float64 column, and the scatter, built on
        the first backward: a hard evaluation reads neither."""
        k = self._k_spans[-1][1]
        counts = np.bincount(self.indices, minlength=k)
        order = np.argsort(self.indices, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(counts)])
        scatter = csr_array((np.ones(order.size), order, indptr), shape=(k, order.size))
        return counts.astype(np.float64)[:, None], scatter

    def layer_weights(self, a) -> list[np.ndarray]:
        """Each layer's part of ``a``, an array over all entries, as a view
        of the layer's shape."""
        return [a[i:j].reshape(W.shape) for (i, j), W in zip(self._spans, self.weights)]

    def layer_centroids(self, a) -> list[np.ndarray]:
        """Each layer's rows of ``a``, an array of the stacked centroids'
        shape, as views."""
        return [a[i:j] for i, j in self._k_spans]

    def forward(self, centroids, hard: bool = False) -> SoftQuantForward:
        """Quantize every layer with the rounding decisions of the stacked
        ``centroids``.

        The stretched sigmoid and its slope depend on the latent alone,
        so they are evaluated once per centroid value; only the decisions
        are gathered through the frozen indices, to quantize W. ``hard``
        binarizes the decisions before the gather, which gives the
        hard-rounded weights of evaluation; a hard decision is flat in
        the latent, so its slope is zero, and no backward reads its
        ``clip_active``, which stays None. ``clip_active`` is a buffer
        that the next forward overwrites.
        """
        sig, g = _stretched_sigmoid(centroids)
        h = np.clip(g, 0.0, 1.0)
        if hard:
            h = hard_round(h)
            slope = np.zeros_like(sig)
        else:
            slope = (ZETA - GAMMA) * sig
            slope *= 1.0 - sig
            slope *= (g > 0.0) & (g < 1.0)
        np.take(h, self.indices, axis=0, out=self._v.reshape(-1, self.d), mode="clip")
        q, what = _quantize_grid(self.base, self._v, self.zero, self.scale,
                                 self.q_min, self.q_max, out=self._v)
        clip_active = None
        if not hard:
            # The clip maps a value inside (q_min, q_max) exactly when it
            # lies inside, so the mask can be read off the clipped values.
            clip_active = np.greater(q, self.q_min, out=self._active)
            clip_active &= np.less(q, self.q_max, out=self._below)
        return SoftQuantForward(what=what, clip_active=clip_active, h=h, slope=slope)

    def backward(self, fwd: SoftQuantForward, lam: float, beta: float) -> tuple[float, np.ndarray]:
        """The rounding regularizer and the stacked centroid gradient of
        ``loss + lam * regularizer``. The objective writes ``dloss/dWhat``
        into ``dwhat``, each layer's part through ``dwhats``, after the
        forward ``fwd`` and before this call, which overwrites it.

        A centroid value used by c blocks enters the regularizer c times,
        so its term and derivative are weighted by c. Each layer's
        regularizer is summed over its own centroids, and the layers'
        sums are added in layer order.
        """
        counts, scatter = self._counts_and_scatter
        terms = counts * _regularizer_terms(fwd.h, beta)
        reg = sum(float(np.sum(terms[i:j])) for i, j in self._k_spans)
        dl_dh = self.dwhat
        dl_dh *= self.scale
        dl_dh *= fwd.clip_active
        grad = scatter @ dl_dh.reshape(-1, self.d)
        if lam != 0.0:
            grad += lam * counts * regularizer_grad(fwd.h, beta)
        grad *= fwd.slope
        return reg, grad


def _layer_setup(W, X, p: QuantParams, cb: Codebook, base=None):
    """The layer's quantizer and the Gram matrix ``X X^T``, checked."""
    X = np.asarray(X, dtype=np.float64)
    if np.shape(W)[1:] != X.shape[:1]:
        raise ShapeMismatch(f"W shape {np.shape(W)} does not take X rows {X.shape[0]}")
    return LayerQuantizer([(W, p, cb, base)]), X @ X.T


def _blockwise_objective(quant: LayerQuantizer, G, centroids, lam,
                         beta) -> tuple[float, np.ndarray]:
    """Blockwise loss and its centroid gradient from one forward of the
    one-layer ``quant``.

    ``G = X X^T`` is fixed for a layer. The forward's ``what`` becomes
    the error and then the product the loss sums, in place.
    """
    fwd = quant.forward(centroids)
    (W,), (err,), (err_g,) = quant.weights, quant.layer_weights(fwd.what), quant.dwhats
    np.subtract(W, err, out=err)
    np.matmul(err, G, out=err_g)
    loss = float(np.sum(np.multiply(err_g, err, out=err)))
    err_g *= -2.0
    reg, grad = quant.backward(fwd, lam, beta)
    return loss + lam * reg, grad


def blockwise_loss(
    W,
    X,
    p: QuantParams,
    cb: Codebook,
    lam: float = 1e-2,
    beta: float = 20.0,
) -> float:
    """||W X - What X||_F^2 + lam * regularizer, What from the codebook."""
    quant, G = _layer_setup(W, X, p, cb)
    return _blockwise_objective(quant, G, cb.centroids, lam, beta)[0]


def optimize_blockwise(
    W,
    X,
    p: QuantParams,
    cb: Codebook,
    cfg: FinetuneConfig,
    base=None,
) -> tuple[Codebook, np.ndarray]:
    """Run Adam on the centroids against the blockwise objective.

    ``base`` is the integer base of the rounding seed, ``floor(W / s)``
    unless given. The regularizer carries zero weight through warm-up;
    indices never change. Returns the optimized codebook and the per-step
    loss trace (evaluated at the pre-update parameters).
    """
    quant, G = _layer_setup(W, X, p, cb, base)
    centroids = quant.centroids
    state = AdamState.for_params(centroids)
    w = warmup_steps(cfg)
    trace = np.zeros(cfg.steps)
    for t in range(1, cfg.steps + 1):
        beta = anneal_beta(t, cfg)
        lam_t = 0.0 if t <= w else cfg.lam
        trace[t - 1], grad = _blockwise_objective(quant, G, centroids, lam_t, beta)
        centroids = adam_step(state, centroids, grad, cfg.lr)
    return Codebook(centroids=centroids, indices=cb.indices.copy(), shape=cb.shape), trace
