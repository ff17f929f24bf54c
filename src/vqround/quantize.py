"""Uniform affine quantization and the learned rounding transform.

Weights quantize per row: each row of ``W`` gets its own positive scale
and integer zero-point covering an asymmetric ``[0, 2^bits - 1]`` grid.
Round-to-nearest uses round-half-away-from-zero. The adaptive path
replaces the nearest-grid decision with a rounding matrix ``H`` in
``[0, 1]`` produced by a stretched sigmoid of a latent matrix, so the
up/down decision of every entry can be optimized by gradient descent
and hardened to binary afterwards. The stretch and the threshold are
AdaRound's, fixed as ``GAMMA``, ``ZETA`` and ``HARD_THRESHOLD``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .errors import BitsOutOfRange, DomainError, OutOfRange, ShapeMismatch


#: AdaRound's constants (Nagel et al., 2020): the sigmoid stretches to
#: (GAMMA, ZETA), past [0, 1] so that both ends are reached at finite
#: latents, and a decision at HARD_THRESHOLD or above hardens to 1.
GAMMA, ZETA, HARD_THRESHOLD = -0.1, 1.1, 0.5


@dataclass(frozen=True)
class RoundingSpec:
    """No settings: the rounding constants are GAMMA, ZETA and
    HARD_THRESHOLD. The class exists only because the benchmark passes
    an instance as the third argument of ``distill.forward_logits``."""


def _check_bits(bits: int) -> None:
    if not isinstance(bits, (int, np.integer)) or not 2 <= int(bits) <= 8:
        raise BitsOutOfRange(f"bits must be an integer in [2, 8], got {bits!r}")


@dataclass
class QuantParams:
    """Per-row scale/zero-point for an asymmetric b-bit integer grid."""

    bits: int
    scale: np.ndarray  # (rows,), positive and finite
    zero: np.ndarray  # (rows,), integers in [0, q_max]

    def __post_init__(self):
        _check_bits(self.bits)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        self.zero = np.asarray(self.zero, dtype=np.int64)
        # NaN fails both comparisons, so it is refused with inf.
        if self.scale.ndim != 1 or not np.all((self.scale > 0.0) & (self.scale < np.inf)):
            raise DomainError("per-row scales must be a 1-d vector of positive finite values")
        if self.zero.shape != self.scale.shape or np.any(
            (self.zero < 0) | (self.zero > self.q_max)
        ):
            raise DomainError("zero-points must match the scales and lie on the grid")

    @property
    def q_min(self) -> int:
        return 0

    @property
    def q_max(self) -> int:
        return 2**self.bits - 1


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _check_rows(W: np.ndarray, p: QuantParams) -> None:
    if W.ndim != 2:
        raise ShapeMismatch(f"expected 2-d weights, got shape {W.shape}")
    if p.scale.shape != (W.shape[0],) or p.zero.shape != (W.shape[0],):
        raise ShapeMismatch(
            f"per-row params of length {p.scale.shape} do not match {W.shape[0]} rows"
        )


def compute_quant_params(W, bits: int) -> QuantParams:
    """Min/max-calibrated per-row scale and zero-point.

    The row range is widened to include 0 so the zero-point always lies
    on the grid. Constant rows degenerate to scale 1 / zero 0, where
    quantization is lossless. A row whose widened range is not finite (a
    NaN or infinite entry, or extremes whose difference overflows) raises
    ``OutOfRange``.
    """
    _check_bits(bits)
    W = np.asarray(W)
    if W.ndim != 2:
        raise ShapeMismatch(f"expected 2-d weights, got shape {W.shape}")
    q_max = 2 ** int(bits) - 1
    # Row extremes are exact in W's own dtype: only they widen to float64.
    lo = np.minimum(0.0, W.min(axis=1).astype(np.float64))
    hi = np.maximum(0.0, W.max(axis=1).astype(np.float64))
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
    bad = np.flatnonzero(~np.isfinite(span))
    if bad.size:
        r = int(bad[0])
        raise OutOfRange(f"row {r}'s range widened to 0, [{lo[r]:g}, {hi[r]:g}], is not finite")
    scale = span / q_max
    # Constant rows and subnormal spans (where the division underflows)
    # degenerate to a unit scale; quantization is lossless there.
    scale = np.where(scale > 0.0, scale, 1.0)
    zero = np.clip(round_half_away(-lo / scale), 0, q_max).astype(np.int64)
    return QuantParams(bits=int(bits), scale=scale, zero=zero)


def rtn_quantize(W, p: QuantParams) -> tuple[np.ndarray, np.ndarray]:
    """Round-to-nearest: returns the integer grid values and the dequant."""
    W = np.asarray(W, dtype=np.float64)
    _check_rows(W, p)
    s = p.scale[:, None]
    z = p.zero[:, None]
    q = np.clip(round_half_away(W / s) + z, p.q_min, p.q_max)
    return q.astype(np.int64), s * (q - z)


def _stretched_sigmoid(A) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(A) and the stretched ``GAMMA + (ZETA - GAMMA) * sigmoid(A)``,
    the rounding values before their clip to [0, 1]."""
    sig = expit(np.asarray(A, dtype=np.float64))
    return sig, GAMMA + (ZETA - GAMMA) * sig


def rectified_sigmoid(A) -> np.ndarray:
    """H = clip(GAMMA + (ZETA - GAMMA) * sigmoid(A), 0, 1), elementwise."""
    return np.clip(_stretched_sigmoid(A)[1], 0.0, 1.0)


# The latents of the rounding values 0 and 1 (about -2.3979 and 2.3979).
_END_LATENTS = logit((np.array([0.0, 1.0]) - GAMMA) / (ZETA - GAMMA))
# Entries per block of a saturated H's walk: 256 KB of float64.
_BLOCK_ENTRIES = 2**15


def _memory_blocks(X) -> list:
    """Consecutive views of at most _BLOCK_ENTRIES entries of a C- or
    Fortran-contiguous X, in its memory order: for a transposed view,
    the rows of its transpose."""
    flat = (X.T if X.flags.f_contiguous else X).reshape(-1)
    return [flat[i:i + _BLOCK_ENTRIES] for i in range(0, flat.size, _BLOCK_ENTRIES)]
# Entries per block of a saturated H's walk: 256 KB of float64.
_BLOCK_ENTRIES = 2**15


def _memory_blocks(X) -> list:
    """Consecutive views of at most _BLOCK_ENTRIES entries of a C- or
    Fortran-contiguous X, in its memory order: for a transposed view,
    the rows of its transpose."""
    flat = (X.T if X.flags.f_contiguous else X).reshape(-1)
    return [flat[i:i + _BLOCK_ENTRIES] for i in range(0, flat.size, _BLOCK_ENTRIES)]


def inverse_rectified_sigmoid(H) -> np.ndarray:
    """Latent preimage of a rounding matrix.

    Well-defined on the closed interval [0, 1]: the sigmoid argument
    stays inside [1/12, 11/12], so the logit is finite even at the
    endpoints. NaN, like any value outside [0, 1], raises.

    The latent is ``logit((H - GAMMA) / (ZETA - GAMMA))`` byte for byte.
    A saturated H, every entry 0 or 1 as in a curvature seed, skips the
    logit: each entry takes one of the two end latents, each the logit
    of the same value, as ``H * e1 - (H - 1) * e0``, which is exact at 0
    and 1. Any other H takes the logit whole. Both the test for a
    saturated H and its latent walk H in blocks of its memory order (the
    sweep's outputs are transposed views), through one bounded buffer,
    so the result is the only array of H's size they allocate.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.size:
        lo, hi = H.min(), H.max()
        if not (lo >= 0.0 and hi <= 1.0):
            raise OutOfRange("rounding values must lie in [0, 1]")
        # A residual seed has no entry at 0 or 1, so only the extremes
        # are looked at before it takes the logit.
        if not (lo > 0.0 and hi < 1.0):
            if not (H.flags.c_contiguous or H.flags.f_contiguous):
                H = np.ascontiguousarray(H)
            blocks = _memory_blocks(H)
            if not any(((h > 0.0) & (h < 1.0)).any() for h in blocks):
                e0, e1 = _END_LATENTS
                A = np.empty_like(H)
                below = np.empty(len(blocks[0]))
                for h, a in zip(blocks, _memory_blocks(A)):
                    np.multiply(h, e1, out=a)
                    b = np.subtract(h, 1.0, out=below[:len(h)])
                    b *= e0
                    a -= b
                return A
    return logit((H - GAMMA) / (ZETA - GAMMA))


def _quantize_grid(base, H, z, s, q_min, q_max, out=None):
    """The rounding quantizer on an integer base, ``floor(W/s)`` by default.

    ``z`` and ``s`` are the per-row zero-points and scales, as columns or
    broadcast to W's shape. Returns the grid values
    ``Q = clip(base + H + z, q_min, q_max)`` and the dequantized
    ``s * (Q - z)``. ``out``, an array of W's shape that may be ``H``
    itself, takes ``Q``; the dequantized weights are always a new array.
    Nothing is checked, so a caller stepping the same layer pays no
    validation.
    """
    q = np.add(base, H, out=out)
    q += z
    np.clip(q, q_min, q_max, out=q)
    what = q - z
    what *= s
    return q, what


def adaptive_quantize(W, p: QuantParams, H, base=None) -> tuple[np.ndarray, np.ndarray]:
    """Quantize with explicit up/down decisions.

    ``Q = clip(base + H + z, q_min, q_max)``, with ``base = floor(W/s)``
    unless given, stays real-valued while H is soft so gradients can
    flow; it is integral exactly when H is binary. Returns ``Q`` and the
    dequantized weights.
    """
    W = np.asarray(W, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    _check_rows(W, p)
    if H.shape != W.shape:
        raise ShapeMismatch(f"H shape {H.shape} != W shape {W.shape}")
    if H.size and (H.min() < 0.0 or H.max() > 1.0):
        raise OutOfRange("rounding values must lie in [0, 1]")
    return _quantize_grid(_base(W, p, base), H, p.zero[:, None], p.scale[:, None], p.q_min, p.q_max)


def _base(W: np.ndarray, p: QuantParams, base, out=None) -> np.ndarray:
    """The integer base of the rounding quantizer as float64: ``floor(W/s)``,
    or the given ``base``, checked to be of W's shape, finite and integral.
    ``out``, an array of W's shape, takes it when given."""
    if base is None:
        q = np.divide(W, p.scale[:, None], out=out)
        return np.floor(q, out=q)
    base = np.asarray(base, dtype=np.float64)
    if base.shape != W.shape:
        raise ShapeMismatch(f"base shape {base.shape} != W shape {W.shape}")
    if not (np.isfinite(base).all() and np.array_equal(base, np.floor(base))):
        raise DomainError("base must hold finite integers")
    if out is None:
        return base
    out[...] = base
    return out


def hard_round(H) -> np.ndarray:
    """Binarize soft decisions; values at HARD_THRESHOLD round up."""
    H = np.asarray(H, dtype=np.float64)
    return np.where(H >= HARD_THRESHOLD, 1.0, 0.0)


def _regularizer_terms(H, beta: float) -> np.ndarray:
    """The per-entry terms ``1 - |2H - 1|^beta`` of the regularizer."""
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    H = np.asarray(H, dtype=np.float64)
    # 1 - a^beta as -expm1(beta log a): the direct form cancels to 0 for a
    # within a few ulps of 1 when beta is small, reading a non-binary H as
    # binary. log(0) = -inf maps a = 0 to exactly 1.
    with np.errstate(divide="ignore"):
        return -np.expm1(beta * np.log(np.abs(2.0 * H - 1.0)))


def rounding_regularizer(H, beta: float) -> float:
    """sum(1 - |2H - 1|^beta): zero iff H is binary, maximal at H = 1/2."""
    return float(np.sum(_regularizer_terms(H, beta)))


def regularizer_grad(H, beta: float) -> np.ndarray:
    """Analytic derivative of :func:`rounding_regularizer` w.r.t. H.

    Defined as 0 at H = 1/2 (the stationary point for beta > 1 and by
    convention for beta <= 1, where the one-sided limits diverge).
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    H = np.asarray(H, dtype=np.float64)
    t = 2.0 * H - 1.0
    a = np.abs(t)
    grad = np.power(a, beta - 1.0, out=np.zeros_like(H), where=a > 0.0)
    np.copysign(grad, t, out=grad)
    grad *= -2.0 * beta
    return grad
