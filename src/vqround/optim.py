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
gradient w.r.t. ``What`` into the centroids. Only the quantizer's part
of it (scale inside the active clip region, zero at and beyond the
boundaries) is per entry; it is scattered onto the k x d centroid
values. Every entry that gathers one centroid value shares its rounding
decision, so the regularizer, its derivative and the stretched
sigmoid's slope are taken once per centroid value, the regularizer
weighted by how many blocks use the centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch, StepOutOfRange
from .quantize import (
    QuantParams,
    RoundingSpec,
    _quantize_grid,
    _regularizer_terms,
    _stretched_sigmoid,
    hard_round,
    regularizer_grad,
)
from .reparam import Codebook, unflatten_blocks


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
    """One bias-corrected Adam update; returns the new parameters."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeMismatch(
            f"params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    state.step += 1
    state.m = _BETA1 * state.m + (1.0 - _BETA1) * grads
    state.v = _BETA2 * state.v + (1.0 - _BETA2) * grads**2
    m_hat = state.m / (1.0 - _BETA1**state.step)
    v_hat = state.v / (1.0 - _BETA2**state.step)
    return params - lr * m_hat / (np.sqrt(v_hat) + _EPS)


@dataclass
class SoftQuantForward:
    """Quantizer outputs plus what the backward pass needs.

    ``h`` and ``slope`` are per centroid value, (k, d); the layer's
    rounding matrix is the gather of ``h`` through the codebook's indices.
    """

    what: np.ndarray  # dequantized weights
    clip_active: np.ndarray | None  # where the integer-range clip is inactive; None if hard
    h: np.ndarray  # rounding decisions in [0, 1]
    slope: np.ndarray  # dh/dA, zeroed where the sigmoid's clip saturates or h is hard


def soft_quant_forward(
    W, p: QuantParams, cb: Codebook, spec: RoundingSpec, base=None, hard: bool = False
) -> SoftQuantForward:
    """Quantize W with the codebook's rounding decisions.

    The stretched sigmoid and its slope depend on the latent alone, so
    they are evaluated once per centroid value; only the decisions are
    gathered through the frozen indices, to quantize W. ``hard``
    binarizes the k*d decisions before the gather, which gives the
    hard-rounded weights of evaluation; a hard decision is flat in the
    latent, so its slope is zero, and no backward reads its ``clip_active``,
    which stays None. ``base`` is the integer floor
    ``floor(W / s)``; callers that run many forwards over one layer pass
    it in precomputed.
    """
    sig, g = _stretched_sigmoid(cb.centroids, spec)
    h = np.clip(g, 0.0, 1.0)
    if hard:
        h = hard_round(h, spec)
        slope = np.zeros_like(sig)
    else:
        slope = (spec.zeta - spec.gamma) * sig
        slope *= 1.0 - sig
        slope *= (g > 0.0) & (g < 1.0)
    H = unflatten_blocks(h[cb.indices], cb.shape)
    if base is None:
        base = np.floor(np.asarray(W, dtype=np.float64) / p.scale[:, None])
    v, _, what = _quantize_grid(base, H, p)
    clip_active = None if hard else (v > p.q_min) & (v < p.q_max)
    return SoftQuantForward(what=what, clip_active=clip_active, h=h, slope=slope)


def scatter_to_centroids(dl_da: np.ndarray, cb: Codebook) -> np.ndarray:
    """Accumulate per-entry latent gradients into the shared centroids."""
    block_grads = dl_da.reshape(-1, cb.d).T
    grad = np.empty_like(cb.centroids)
    for j in range(cb.d):
        grad[:, j] = np.bincount(cb.indices, weights=block_grads[j], minlength=cb.k)
    return grad


def _layer_constants(W, X, p: QuantParams, cb: Codebook):
    """What every blockwise step of one layer shares: the checked float64
    weights, the Gram matrix ``X X^T`` and the integer floor ``floor(W / s)``."""
    W = np.asarray(W, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if W.shape[1] != X.shape[0]:
        raise ShapeMismatch(f"W cols {W.shape[1]} != X rows {X.shape[0]}")
    if cb.shape != W.shape:
        raise ShapeMismatch(f"codebook shape {cb.shape} != W shape {W.shape}")
    return W, X @ X.T, np.floor(W / p.scale[:, None])


def _codebook_backward(fwd: SoftQuantForward, dl_dwhat, p: QuantParams, cb: Codebook,
                       lam: float, beta: float) -> tuple[float, np.ndarray]:
    """The rounding regularizer and the centroid gradient of
    ``loss + lam * regularizer``, given ``dl_dwhat = dloss/dWhat``.

    A centroid value used by c blocks enters the regularizer c times, so
    its term and derivative are weighted by c.
    """
    counts = np.bincount(cb.indices, minlength=cb.k)[:, None]
    reg = float(np.sum(counts * _regularizer_terms(fwd.h, beta)))
    dl_dh = dl_dwhat * p.scale[:, None]
    dl_dh *= fwd.clip_active
    grad = scatter_to_centroids(dl_dh, cb)
    if lam != 0.0:
        grad += lam * counts * regularizer_grad(fwd.h, beta)
    grad *= fwd.slope
    return reg, grad


def _blockwise_objective(W, G, base, p, cb, spec, lam, beta) -> tuple[float, np.ndarray]:
    """Blockwise loss and its centroid gradient from one forward.

    ``G = X X^T`` and ``base = floor(W / s)`` are fixed for a layer.
    """
    fwd = soft_quant_forward(W, p, cb, spec, base)
    err = W - fwd.what
    err_g = err @ G
    loss = float(np.sum(err_g * err))
    err_g *= -2.0
    reg, grad = _codebook_backward(fwd, err_g, p, cb, lam, beta)
    return loss + lam * reg, grad


def blockwise_loss(
    W,
    X,
    p: QuantParams,
    cb: Codebook,
    spec: RoundingSpec = RoundingSpec(),
    lam: float = 1e-2,
    beta: float = 20.0,
) -> float:
    """||W X - What X||_F^2 + lam * regularizer, What from the codebook."""
    W, G, base = _layer_constants(W, X, p, cb)
    return _blockwise_objective(W, G, base, p, cb, spec, lam, beta)[0]


def optimize_blockwise(
    W,
    X,
    p: QuantParams,
    cb: Codebook,
    cfg: FinetuneConfig,
    spec: RoundingSpec = RoundingSpec(),
) -> tuple[Codebook, np.ndarray]:
    """Run Adam on the centroids against the blockwise objective.

    The regularizer carries zero weight through warm-up; indices never
    change. Returns the optimized codebook and the per-step loss trace
    (evaluated at the pre-update parameters).
    """
    W, G, base = _layer_constants(W, X, p, cb)
    centroids = cb.centroids.astype(np.float64).copy()
    work = Codebook(centroids=centroids, indices=cb.indices.copy(), shape=cb.shape)
    state = AdamState.for_params(centroids)
    w = warmup_steps(cfg)
    trace = np.zeros(cfg.steps)
    for t in range(1, cfg.steps + 1):
        beta = anneal_beta(t, cfg)
        lam_t = 0.0 if t <= w else cfg.lam
        trace[t - 1], grad = _blockwise_objective(W, G, base, p, work, spec, lam_t, beta)
        work.centroids = adam_step(state, work.centroids, grad, cfg.lr)
    return work, trace
